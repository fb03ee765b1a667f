package core

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// Maintainer state kinds, one per maintenance algorithm.
const (
	KindHouse         = "house"
	KindSenate        = "senate"
	KindBasicCongress = "basic-congress"
	KindCongress      = "congress"
	KindCongressDelta = "congress-delta"
)

// MaintainerState is the serializable state of any Maintainer, used by
// durable warehouse snapshots. One struct covers all five maintainer
// kinds; Kind selects which fields are meaningful. All containers are
// deep-copied on export so the state stays consistent while the live
// maintainer keeps mutating (rows themselves are immutable by
// convention and are shared).
//
// RNG state is intentionally not part of the state: a restored
// maintainer reseeds its randomness, which preserves every
// distributional invariant (each reachable state is
// distribution-equivalent under any RNG continuation) without
// persisting generator internals.
type MaintainerState struct {
	Kind  string
	Attrs []string // grouping attributes, in mask-bit order

	// Reservoir is the single stream-wide reservoir of House, Basic
	// Congress, and Congress-delta maintainers.
	Reservoir *sample.ReservoirState[engine.Row]
	// Groups holds Senate's per-group reservoirs.
	Groups map[string]*sample.ReservoirState[engine.Row]
	// Pops is the per-group population map (house, senate, basic).
	Pops map[string]int64
	// Seen is the number of tuples inserted so far.
	Seen int64
	// Budget is the maintainer's space parameter: X for House/Senate,
	// the pre-scaling Y for the Congress family.
	Budget int
	// X counts reservoir tuples per group (basic, congress-delta).
	X map[string]int
	// Delta holds the per-group spill-over samples (basic,
	// congress-delta).
	Delta map[string][]engine.Row
	// Cube is the group-count data cube (congress, congress-delta).
	Cube *datacube.CubeState
	// Items are the Eq. 8 sampled tuples with their stored selection
	// probabilities (congress).
	Items []CongItemState
	// RebalanceEvery is the congress lazy-decay period.
	RebalanceEvery int64
}

// CongItemState is one sampled tuple of a CongressMaintainer.
type CongItemState struct {
	Row engine.Row
	ID  datacube.GroupID
	P   float64
}

// StatefulMaintainer is a Maintainer whose complete state can be
// exported for durable snapshots. All maintainers in this package
// implement it.
type StatefulMaintainer interface {
	Maintainer
	ExportState() *MaintainerState
}

func copyPops(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ExportState implements StatefulMaintainer.
func (m *HouseMaintainer) ExportState() *MaintainerState {
	return &MaintainerState{
		Kind:      KindHouse,
		Attrs:     append([]string(nil), m.g.Attrs...),
		Reservoir: m.res.State(),
		Pops:      copyPops(m.pops),
		Seen:      m.seen,
		Budget:    m.res.Cap(),
	}
}

// ExportState implements StatefulMaintainer.
func (m *SenateMaintainer) ExportState() *MaintainerState {
	groups := make(map[string]*sample.ReservoirState[engine.Row], len(m.groups))
	for k, res := range m.groups {
		groups[k] = res.State()
	}
	return &MaintainerState{
		Kind:   KindSenate,
		Attrs:  append([]string(nil), m.g.Attrs...),
		Groups: groups,
		Pops:   copyPops(m.pops),
		Seen:   m.seen,
		Budget: m.x,
	}
}

// slotMaps exports per-slot reservoir counts and delta samples as maps
// keyed by each slot's finest group key.
func slotMaps(keys func(slot int) string, x []int, delta [][]engine.Row) (map[string]int, map[string][]engine.Row) {
	xs := make(map[string]int)
	ds := make(map[string][]engine.Row)
	for slot, n := range x {
		if n != 0 {
			xs[keys(slot)] = n
		}
		if len(delta[slot]) > 0 {
			ds[keys(slot)] = append([]engine.Row(nil), delta[slot]...)
		}
	}
	return xs, ds
}

// restoreSlotMaps is slotMaps inverted: slot(key) resolves a key to its
// slot, and the returned slices cover n slots.
func restoreSlotMaps(n int, slot func(key string) (int, error), xs map[string]int, ds map[string][]engine.Row) ([]int, [][]engine.Row, error) {
	x := make([]int, n)
	delta := make([][]engine.Row, n)
	for key, v := range xs {
		s, err := slot(key)
		if err != nil {
			return nil, nil, err
		}
		x[s] = v
	}
	for key, d := range ds {
		s, err := slot(key)
		if err != nil {
			return nil, nil, err
		}
		delta[s] = append([]engine.Row(nil), d...)
	}
	return x, delta, nil
}

// ExportState implements StatefulMaintainer.
func (m *BasicCongressMaintainer) ExportState() *MaintainerState {
	pops := make(map[string]int64, len(m.pops))
	for slot, n := range m.pops {
		pops[m.slots.keys[slot]] = n
	}
	x, delta := slotMaps(func(slot int) string { return m.slots.keys[slot] }, m.x, m.delta)
	return &MaintainerState{
		Kind:      KindBasicCongress,
		Attrs:     append([]string(nil), m.g.Attrs...),
		Reservoir: m.res.State(),
		Pops:      pops,
		Seen:      m.seen,
		Budget:    m.y,
		X:         x,
		Delta:     delta,
	}
}

// ExportState implements StatefulMaintainer.
func (m *CongressMaintainer) ExportState() *MaintainerState {
	items := make([]CongItemState, len(m.items))
	for i, it := range m.items {
		items[i] = CongItemState{
			Row: it.row,
			ID:  append(datacube.GroupID(nil), m.cube.SlotID(it.slot)...),
			P:   it.p,
		}
	}
	return &MaintainerState{
		Kind:           KindCongress,
		Attrs:          append([]string(nil), m.g.Attrs...),
		Seen:           m.seen,
		Budget:         int(m.y),
		Cube:           m.cube.State(),
		Items:          items,
		RebalanceEvery: m.rebalanceEvery,
	}
}

// ExportState implements StatefulMaintainer.
func (m *CongressDeltaMaintainer) ExportState() *MaintainerState {
	x, delta := slotMaps(m.cube.SlotKey, m.x, m.delta)
	return &MaintainerState{
		Kind:      KindCongressDelta,
		Attrs:     append([]string(nil), m.g.Attrs...),
		Reservoir: m.res.State(),
		Seen:      m.seen,
		Budget:    m.y,
		X:         x,
		Delta:     delta,
		Cube:      m.cube.State(),
	}
}

// RestoreMaintainer rebuilds a maintainer from exported state, resolving
// the grouping attributes against the base relation's schema and drawing
// future randomness from rng. The restored maintainer is
// distribution-equivalent to the exported one (RNG state is reseeded;
// see MaintainerState).
func RestoreMaintainer(st *MaintainerState, schema *engine.Schema, rng *rand.Rand) (StatefulMaintainer, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil maintainer state")
	}
	g, err := NewGrouping(schema, st.Attrs)
	if err != nil {
		return nil, fmt.Errorf("core: restoring %s maintainer: %w", st.Kind, err)
	}
	switch st.Kind {
	case KindHouse:
		res, err := sample.RestoreReservoir(st.Reservoir, rng)
		if err != nil {
			return nil, fmt.Errorf("core: restoring house maintainer: %w", err)
		}
		return &HouseMaintainer{g: g, res: res, pops: copyPops(st.Pops), seen: st.Seen}, nil
	case KindSenate:
		m := &SenateMaintainer{
			g:      g,
			x:      st.Budget,
			rng:    rng,
			groups: make(map[string]*sample.Reservoir[engine.Row], len(st.Groups)),
			pops:   copyPops(st.Pops),
			seen:   st.Seen,
		}
		if m.x <= 0 {
			return nil, fmt.Errorf("core: restoring senate maintainer: budget %d", m.x)
		}
		for k, rs := range st.Groups {
			res, err := sample.RestoreReservoir(rs, rng)
			if err != nil {
				return nil, fmt.Errorf("core: restoring senate group %q: %w", k, err)
			}
			m.groups[k] = res
		}
		return m, nil
	case KindBasicCongress:
		res, err := sample.RestoreReservoir(st.Reservoir, rng)
		if err != nil {
			return nil, fmt.Errorf("core: restoring basic congress maintainer: %w", err)
		}
		m := &BasicCongressMaintainer{g: g, y: st.Budget, rng: rng, res: res, seen: st.Seen}
		// Number groups in key order so a restore is deterministic.
		keys := make([]string, 0, len(st.Pops))
		for k := range st.Pops {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m.pops[m.slotFor([]byte(k))] = st.Pops[k]
		}
		lookup := func(key string) (int, error) {
			s, ok := m.slots.lookup([]byte(key))
			if !ok {
				return 0, fmt.Errorf("core: restoring basic congress maintainer: group %q has no population entry", key)
			}
			return s, nil
		}
		if m.x, m.delta, err = restoreSlotMaps(len(m.pops), lookup, st.X, st.Delta); err != nil {
			return nil, err
		}
		return m, nil
	case KindCongress:
		cube, err := datacube.RestoreCube(st.Cube)
		if err != nil {
			return nil, fmt.Errorf("core: restoring congress maintainer: %w", err)
		}
		m := &CongressMaintainer{
			g:              g,
			y:              float64(st.Budget),
			rng:            rng,
			cube:           cube,
			seen:           st.Seen,
			rebalanceEvery: st.RebalanceEvery,
		}
		if m.y <= 0 {
			return nil, fmt.Errorf("core: restoring congress maintainer: budget %d", st.Budget)
		}
		m.items = make([]congItem, len(st.Items))
		for i, it := range st.Items {
			if it.P <= 0 || it.P > 1 {
				return nil, fmt.Errorf("core: restoring congress maintainer: item %d has probability %v outside (0,1]", i, it.P)
			}
			slot, ok := cube.Lookup([]byte(it.ID.Key()))
			if !ok {
				return nil, fmt.Errorf("core: restoring congress maintainer: item %d has group %q absent from the cube", i, it.ID)
			}
			m.items[i] = congItem{row: it.Row, slot: slot, p: it.P}
		}
		return m, nil
	case KindCongressDelta:
		res, err := sample.RestoreReservoir(st.Reservoir, rng)
		if err != nil {
			return nil, fmt.Errorf("core: restoring congress-delta maintainer: %w", err)
		}
		cube, err := datacube.RestoreCube(st.Cube)
		if err != nil {
			return nil, fmt.Errorf("core: restoring congress-delta maintainer: %w", err)
		}
		lookup := func(key string) (int, error) {
			s, ok := cube.Lookup([]byte(key))
			if !ok {
				return 0, fmt.Errorf("core: restoring congress-delta maintainer: group %q absent from the cube", key)
			}
			return s, nil
		}
		x, delta, err := restoreSlotMaps(cube.NumSlots(), lookup, st.X, st.Delta)
		if err != nil {
			return nil, err
		}
		return &CongressDeltaMaintainer{
			g:     g,
			y:     st.Budget,
			rng:   rng,
			res:   res,
			cube:  cube,
			x:     x,
			delta: delta,
			seen:  st.Seen,
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown maintainer kind %q", st.Kind)
	}
}
