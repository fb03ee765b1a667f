package aqua

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
)

// Hybrid exact-aggregate support (AQP++-style): the synopsis's one group
// cube — the cube its maintainer counts in — also carries SUM and
// non-null-COUNT measures for every numeric base column, kept per finest
// group and rolled up to the requested grouping on read, and fed by the
// same insert that counts the row. A direct-estimation query whose
// grouping is covered by G and whose aggregate column is a tracked
// measure can then be answered exactly — zero-width confidence
// contribution — with the congressional sample reserved for whatever
// the cube does not cover (other shards, stale measures, non-measure
// columns).
//
// Staleness contract: exactEpoch records the synopsis epoch the
// measures were last known synchronized at. Inserts feed them and
// re-sync it; every other epoch advance (Refresh, UpdateScaleFactor,
// restore from a snapshot whose measures were not exported fresh)
// leaves exactEpoch behind, so ExactPartials refuses to answer until the
// next insert proves the feed is live again. The guard is deliberately
// conservative: measures that cannot be proven current contribute
// nothing, and the estimator falls back to the pure-sample path.

// measureColumns returns the base-schema ordinals and names of the
// columns a synopsis cube tracks as measures: every column whose Value
// kind converts through AsFloat (Int, Float, Date, Bool) — the same set
// the estimate path can aggregate.
func measureColumns(schema *engine.Schema) ([]int, []string) {
	var ords []int
	var names []string
	for i, col := range schema.Cols {
		switch col.Kind {
		case engine.KindInt, engine.KindFloat, engine.KindDate, engine.KindBool:
			ords = append(ords, i)
			names = append(names, col.Name)
		}
	}
	return ords, names
}

// bindMeasures arms hybrid answering when the maintainer's cube carries
// the schema's measure columns. A count-only cube (restored from a state
// exported with stale measures) leaves it off; a cube with any other
// measure list cannot be fed and is rejected.
func (s *Synopsis) bindMeasures(schema *engine.Schema) error {
	ords, names := measureColumns(schema)
	got := s.maintainer.Cube().Measures()
	if len(got) == 0 {
		return nil
	}
	if !slices.Equal(got, names) {
		return fmt.Errorf("aqua: synopsis cube tracks measures %v, table %q has %v", got, s.cfg.Table, names)
	}
	s.hybrid = true
	s.exactMeasureIdx = ords
	s.exactMeasureName = make(map[int]string, len(ords))
	for i, ci := range ords {
		s.exactMeasureName[ci] = names[i]
	}
	s.exactGroupPos = make(map[int]int, len(s.cfg.GroupCols))
	for pos, gc := range s.cfg.GroupCols {
		s.exactGroupPos[schema.Index(gc)] = pos
	}
	return nil
}

// feedLocked offers one inserted row to the maintainer, which counts it
// in the cube, and adds the row's measures to the row's slot. Callers
// must hold s.mu (or own the synopsis exclusively).
func (s *Synopsis) feedLocked(row engine.Row) {
	s.key = s.grouping.AppendKey(s.key[:0], row)
	slot := s.maintainer.InsertKeyed(row, s.key)
	if !s.hybrid {
		return
	}
	vals := s.exactVals[:0]
	for _, ci := range s.exactMeasureIdx {
		v, ok := row[ci].AsFloat()
		vals = append(vals, datacube.MeasureValue{V: v, OK: ok})
	}
	s.exactVals = vals
	// The measures must never silently diverge from the base relation:
	// a feed error (impossible, vals follow the cube's measure list)
	// turns hybrid answering off rather than leaving it subtly wrong.
	if err := s.maintainer.Cube().AddMeasures(slot, vals); err != nil {
		s.hybrid = false
	}
}

// syncExactEpoch publishes that the measures are synchronized at epoch
// e. Monotonic: a concurrent insert that observed a later epoch wins, so
// exactEpoch can never regress below the freshest proven sync point.
func (s *Synopsis) syncExactEpoch(e uint64) {
	for {
		cur := s.exactEpoch.Load()
		if cur >= e || s.exactEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// slotLabels returns, per cube slot, the slot's grouping values rendered
// for display, in attribute order. Each slot is rendered once, on the
// first read after it appears, by decoding its engine group keys, so a
// restored cube renders exactly as the live one did. Callers must hold
// s.mu for reading.
func (s *Synopsis) slotLabels(cube *datacube.Cube) [][]string {
	s.labelsMu.Lock()
	defer s.labelsMu.Unlock()
	for slot := len(s.labels); slot < cube.NumSlots(); slot++ {
		id := cube.SlotID(slot)
		label := make([]string, len(id))
		for i, part := range id {
			// Parts are engine group keys: encoded from live rows, or
			// checked when the cube was restored.
			v, _ := engine.ParseGroupKey(part)
			label[i] = v.String()
		}
		s.labels = append(s.labels, label)
	}
	return s.labels
}

// ExactPartials answers a direct-estimation request entirely from the
// cube's measures: one GroupPartial per non-empty group carrying only
// exact mass (ExactSum, ExactCount), which Finalize turns into
// zero-width estimates. groupCols and aggCol are resolved base-schema
// ordinals (the same ones the sample path scans), so exact and sampled
// answers agree on keys and semantics: group keys are the rendered
// values joined in request order — cube groups whose values render alike
// (NULL and "NULL") merge into one — and groups whose aggregate column
// is entirely NULL are omitted exactly as the sample path drops them.
//
// ok is false — and the caller must fall back to the sample — when the
// measures are missing or stale, the grouping is not a subset of G, or
// the aggregate column is not a tracked measure.
func (s *Synopsis) ExactPartials(groupCols []int, aggCol int) ([]estimate.GroupPartial, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.hybrid || s.exactEpoch.Load() != s.epoch.Load() {
		return nil, false
	}
	measure, ok := s.exactMeasureName[aggCol]
	if !ok {
		return nil, false
	}
	// Map each requested column to its position in G; the projection mask
	// selects those positions, and keys are built in request order from
	// the rendered values at those positions.
	mask := uint32(0)
	positions := make([]int, len(groupCols))
	for i, ci := range groupCols {
		pos, ok := s.exactGroupPos[ci]
		if !ok {
			return nil, false
		}
		positions[i] = pos
		mask |= 1 << uint(pos)
	}
	cube := s.maintainer.Cube()
	labels := s.slotLabels(cube)
	// Key every non-empty group by its rendered values, then number the
	// distinct keys in sorted order: groups that render alike share a
	// bucket, and the buckets come out in answer order. of holds each
	// group's slot, then its bucket.
	of := cube.GroupSlots(mask)
	keys := make([]string, len(of))
	order := make([]int, 0, len(of))
	var key []byte
	for ci, slot := range of {
		if slot < 0 {
			continue
		}
		key = key[:0]
		for i, pos := range positions {
			if i > 0 {
				key = append(key, datacube.KeySep...)
			}
			key = append(key, labels[slot][pos]...)
		}
		keys[ci] = string(key)
		order = append(order, ci)
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	var bucketKeys []string
	for _, ci := range order {
		if n := len(bucketKeys); n == 0 || bucketKeys[n-1] != keys[ci] {
			bucketKeys = append(bucketKeys, keys[ci])
		}
		of[ci] = int32(len(bucketKeys) - 1)
	}
	sums, nonNull, found := cube.MeasureRollup(mask, measure, of, len(bucketKeys))
	if !found {
		return nil, false
	}
	var out []estimate.GroupPartial
	for b, k := range bucketKeys {
		if nonNull[b] == 0 {
			// Every row's aggregate value is NULL: the sample path never
			// observes a passing row for this group and drops it; match.
			continue
		}
		out = append(out, estimate.GroupPartial{
			Key:        k,
			ExactSum:   sums[b],
			ExactCount: float64(nonNull[b]),
			Lo:         math.Inf(1),
			Hi:         math.Inf(-1),
		})
	}
	return out, true
}
