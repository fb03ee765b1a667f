package core

import (
	"fmt"
	"math/rand"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// deltaSampler is the reservoir-plus-delta algorithm of Section 6: a
// single reservoir sample of size Y over the entire relation, plus
// per-group "delta" uniform samples holding the extra tuples that small
// groups need beyond their share of the reservoir. Basic Congress and
// Congress-delta both run it; they differ only in each group's target
// (see target).
type deltaSampler struct {
	groupCube
	kind string // KindBasicCongress or KindCongressDelta
	y    int
	rng  *rand.Rand

	res   *sample.Reservoir[engine.Row]
	x     []int          // reservoir tuples per finest group, by cube slot
	delta [][]engine.Row // spill-over uniform samples, by cube slot
}

// BasicCongressMaintainer incrementally maintains a Basic Congress
// sample per the Section 6 algorithm, whose per-group target is the
// Senate share Y/m. Theorem 6.1 proves this maintains a valid basic
// congressional sample; TestBasicCongressMaintainerUniformity checks the
// delta-uniformity invariant empirically.
type BasicCongressMaintainer struct{ deltaSampler }

// newDeltaSampler creates the shared state of a Basic Congress or
// Congress-delta maintainer with reservoir size y.
func newDeltaSampler(kind string, g *Grouping, cube *datacube.Cube, y int, rng *rand.Rand) (deltaSampler, error) {
	gc, err := newGroupCube(g, cube)
	if err != nil {
		return deltaSampler{}, err
	}
	res, err := sample.NewReservoir[engine.Row](y, rng)
	if err != nil {
		return deltaSampler{}, err
	}
	return deltaSampler{groupCube: gc, kind: kind, y: y, rng: rng, res: res}, nil
}

// NewBasicCongressMaintainer creates a maintainer with reservoir size y
// (the pre-scaling allocation; see the discussion after Theorem 6.1 on
// the fluctuating total size) that counts into cube (nil: a count-only
// cube of its own).
func NewBasicCongressMaintainer(g *Grouping, cube *datacube.Cube, y int, rng *rand.Rand) (*BasicCongressMaintainer, error) {
	d, err := newDeltaSampler(KindBasicCongress, g, cube, y, rng)
	if err != nil {
		return nil, err
	}
	return &BasicCongressMaintainer{d}, nil
}

// target is the group's requirement: the Senate share Y/m for Basic
// Congress, the full Congress pre-scaling target for Congress-delta.
func (m *deltaSampler) target(slot int) float64 {
	if m.kind == KindCongressDelta {
		return m.congressTarget(slot)
	}
	return float64(m.y) / float64(m.cube.NumGroups(m.cube.FinestMask()))
}

// grow sizes the per-slot samples to cover slot.
func (m *deltaSampler) grow(slot int) {
	for len(m.x) <= slot {
		m.x = append(m.x, 0)
		m.delta = append(m.delta, nil)
	}
}

// Insert implements Maintainer.
func (m *deltaSampler) Insert(row engine.Row) {
	var buf [64]byte
	m.InsertKeyed(row, m.g.AppendKey(buf[:0], row))
}

// InsertKeyed implements Maintainer, following the four cases of the
// paper's algorithm. Step 4 (new group): m grows, so every group's delta
// target shrinks; evictions happen lazily as groups are touched, and we
// trim the group we touch below.
func (m *deltaSampler) InsertKeyed(row engine.Row, key []byte) int {
	slot := m.count(row, key)
	m.grow(slot)
	target := m.target(slot)

	evicted, hadEviction, accepted := m.res.Offer(row)
	switch {
	case !accepted:
		// Step 1 — common case — except the step-4 small-group rule:
		// while a group is smaller than its target, every tuple that
		// misses the reservoir goes to the delta sample, keeping the
		// group fully represented.
		if float64(m.pop(slot)) <= target {
			m.delta[slot] = append(m.delta[slot], row)
		}
	case !hadEviction:
		// Reservoir still filling: the tuple joined the reservoir.
		m.x[slot]++
	default:
		ev := m.g.slot(m.cube, evicted, m.rowKey(evicted))
		m.grow(ev)
		if ev == slot {
			// Step 2: same group swapped with itself — nothing changes.
			break
		}
		// Step 3: the group gained a reservoir tuple; its delta shrinks.
		m.x[slot]++
		if len(m.delta[slot]) > 0 {
			m.evictDelta(slot)
		}
		// Group ev lost a reservoir tuple; if it is now below target,
		// the evicted tuple (a uniform pick from the group's reservoir
		// tuples) moves to the delta sample.
		m.x[ev]--
		if float64(m.x[ev]) < m.target(ev) {
			m.delta[ev] = append(m.delta[ev], evicted)
		}
	}
	m.trimDelta(slot, target)
	return slot
}

// evictDelta removes one uniformly random tuple from a delta sample.
func (m *deltaSampler) evictDelta(slot int) {
	d := m.delta[slot]
	i := m.rng.Intn(len(d))
	last := len(d) - 1
	d[i] = d[last]
	m.delta[slot] = d[:last]
}

// trimDelta enforces |Δ_g| ≤ max(0, ⌈target⌉ − x_g) by uniformly random
// eviction — the lazy eviction of step 4 (random eviction preserves the
// uniform-sample property per Theorem 6.1).
func (m *deltaSampler) trimDelta(slot int, target float64) {
	limit := int(target+0.9999) - m.x[slot]
	if limit < 0 {
		limit = 0
	}
	for len(m.delta[slot]) > limit {
		m.evictDelta(slot)
	}
}

// Compact applies the lazy delta trimming to every group at once,
// bounding total size; useful before Snapshot on long-running streams.
func (m *deltaSampler) Compact() {
	for slot, d := range m.delta {
		if len(d) > 0 {
			m.trimDelta(slot, m.target(slot))
		}
	}
}

// SampledCount implements Maintainer.
func (m *deltaSampler) SampledCount() int {
	n := m.res.Len()
	for _, d := range m.delta {
		n += len(d)
	}
	return n
}

// Snapshot implements Maintainer: each stratum holds the group's
// reservoir tuples plus its delta sample.
func (m *deltaSampler) Snapshot() (*sample.Stratified[engine.Row], error) {
	m.Compact()
	st, strata := m.newSnapshot()
	for _, row := range m.res.Items() {
		if err := m.placeRow(strata, row); err != nil {
			return nil, err
		}
	}
	for slot, d := range m.delta {
		if len(d) == 0 {
			continue
		}
		if strata[slot] == nil {
			return nil, fmt.Errorf("core: %s maintainer holds a delta sample for group %q with no population", m.kind, m.cube.SlotKey(slot))
		}
		strata[slot].Items = append(strata[slot].Items, d...)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
