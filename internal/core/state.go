package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

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
	// Pops is the per-group population map older house, senate and
	// basic states carry in place of Cube. It is only read.
	Pops map[string]int64
	// Budget is the maintainer's space parameter: X for House/Senate,
	// the pre-scaling Y for the Congress family.
	Budget int
	// X counts reservoir tuples per group (basic, congress-delta).
	X map[string]int
	// Delta holds the per-group spill-over samples (basic,
	// congress-delta).
	Delta map[string][]engine.Row
	// Cube is the group cube every inserted tuple is counted in, with
	// the measures of the synopsis that owns it.
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

// state returns the fields every kind exports.
func (c *groupCube) state(kind string, budget int) *MaintainerState {
	return &MaintainerState{
		Kind:   kind,
		Attrs:  append([]string(nil), c.g.Attrs...),
		Budget: budget,
		Cube:   c.cube.State(),
	}
}

// ExportState implements StatefulMaintainer.
func (m *HouseMaintainer) ExportState() *MaintainerState {
	st := m.state(KindHouse, m.res.Cap())
	st.Reservoir = m.res.State()
	return st
}

// ExportState implements StatefulMaintainer.
func (m *SenateMaintainer) ExportState() *MaintainerState {
	st := m.state(KindSenate, m.x)
	st.Groups = make(map[string]*sample.ReservoirState[engine.Row], len(m.groups))
	for slot, res := range m.groups {
		st.Groups[m.cube.SlotKey(slot)] = res.State()
	}
	return st
}

// ExportState implements StatefulMaintainer. Per-slot reservoir counts
// and delta samples are keyed by each slot's finest group key.
func (m *deltaSampler) ExportState() *MaintainerState {
	st := m.state(m.kind, m.y)
	st.Reservoir = m.res.State()
	st.X = make(map[string]int)
	st.Delta = make(map[string][]engine.Row)
	for slot, n := range m.x {
		if n != 0 {
			st.X[m.cube.SlotKey(slot)] = n
		}
		if len(m.delta[slot]) > 0 {
			st.Delta[m.cube.SlotKey(slot)] = append([]engine.Row(nil), m.delta[slot]...)
		}
	}
	return st
}

// ExportState implements StatefulMaintainer.
func (m *CongressMaintainer) ExportState() *MaintainerState {
	st := m.state(KindCongress, int(m.y))
	st.Items = make([]CongItemState, len(m.items))
	for i, it := range m.items {
		st.Items[i] = CongItemState{
			Row: it.row,
			ID:  append(datacube.GroupID(nil), m.cube.SlotID(it.slot)...),
			P:   it.p,
		}
	}
	st.RebalanceEvery = m.rebalanceEvery
	return st
}

// restoreCube rebuilds a state's group cube: from Cube, or from Pops in
// an older house, senate or basic state. It is the one place a
// snapshot's cube enters the process, so it rejects a cube that is not
// over the state's grouping, or whose slots are not keyed by their own
// engine group keys, before any insert can trip over it.
func restoreCube(st *MaintainerState) (*datacube.Cube, error) {
	var cube *datacube.Cube
	var err error
	if st.Cube != nil {
		cube, err = datacube.RestoreCube(st.Cube)
	} else {
		cube, err = datacube.New(st.Attrs)
		keys := make([]string, 0, len(st.Pops))
		for k := range st.Pops {
			keys = append(keys, k)
		}
		// Number groups in key order so a restore is deterministic.
		sort.Strings(keys)
		for _, k := range keys {
			if err == nil {
				err = cube.AddN(strings.Split(k, datacube.KeySep), st.Pops[k])
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if !slices.Equal(cube.Attrs(), st.Attrs) {
		return nil, fmt.Errorf("cube over %v, maintainer groups by %v", cube.Attrs(), st.Attrs)
	}
	for slot := 0; slot < cube.NumSlots(); slot++ {
		id := cube.SlotID(slot)
		if cube.SlotKey(slot) != id.Key() {
			return nil, fmt.Errorf("cube group %q is keyed %q", id.Key(), cube.SlotKey(slot))
		}
		for _, part := range id {
			if _, err := engine.ParseGroupKey(part); err != nil {
				return nil, err
			}
		}
	}
	return cube, nil
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
	m, err := restoreMaintainer(st, schema, rng)
	if err != nil {
		return nil, fmt.Errorf("core: restoring %s maintainer: %w", st.Kind, err)
	}
	return m, nil
}

func restoreMaintainer(st *MaintainerState, schema *engine.Schema, rng *rand.Rand) (StatefulMaintainer, error) {
	g, err := NewGrouping(schema, st.Attrs)
	if err != nil {
		return nil, err
	}
	cube, err := restoreCube(st)
	if err != nil {
		return nil, err
	}
	if err := checkRows(st, len(schema.Cols)); err != nil {
		return nil, err
	}
	gc := groupCube{g: g, cube: cube}
	slotOf := func(key string) (int, error) {
		slot, ok := cube.Lookup([]byte(key))
		if !ok {
			return 0, fmt.Errorf("group %q absent from the cube", key)
		}
		return slot, nil
	}
	// The stream-wide reservoir sees every tuple the cube counts.
	var res *sample.Reservoir[engine.Row]
	if st.Kind == KindHouse || st.Kind == KindBasicCongress || st.Kind == KindCongressDelta {
		if res, err = sample.RestoreReservoir(st.Reservoir, rng); err != nil {
			return nil, err
		}
		if res.Seen() != cube.Total() {
			return nil, fmt.Errorf("reservoir saw %d tuples, the cube counts %d", res.Seen(), cube.Total())
		}
	}
	switch st.Kind {
	case KindHouse:
		return &HouseMaintainer{groupCube: gc, res: res}, nil
	case KindSenate:
		if st.Budget <= 0 {
			return nil, fmt.Errorf("budget %d", st.Budget)
		}
		m := &SenateMaintainer{groupCube: gc, x: st.Budget, rng: rng, groups: make([]*sample.Reservoir[engine.Row], cube.NumSlots())}
		for k, rs := range st.Groups {
			slot, err := slotOf(k)
			if err != nil {
				return nil, err
			}
			if m.groups[slot], err = sample.RestoreReservoir(rs, rng); err != nil {
				return nil, fmt.Errorf("group %q: %w", k, err)
			}
			if seen, pop := m.groups[slot].Seen(), gc.pop(slot); seen != pop {
				return nil, fmt.Errorf("group %q reservoir saw %d tuples, the cube counts %d", k, seen, pop)
			}
		}
		if i := slices.Index(m.groups, nil); i >= 0 {
			return nil, fmt.Errorf("group %q has no reservoir", cube.SlotKey(i))
		}
		return m, nil
	case KindBasicCongress, KindCongressDelta:
		d := deltaSampler{groupCube: gc, kind: st.Kind, y: st.Budget, rng: rng, res: res,
			x: make([]int, cube.NumSlots()), delta: make([][]engine.Row, cube.NumSlots())}
		for key, v := range st.X {
			slot, err := slotOf(key)
			if err != nil {
				return nil, err
			}
			d.x[slot] = v
		}
		for key, rows := range st.Delta {
			slot, err := slotOf(key)
			if err != nil {
				return nil, err
			}
			d.delta[slot] = append([]engine.Row(nil), rows...)
		}
		if st.Kind == KindBasicCongress {
			return &BasicCongressMaintainer{d}, nil
		}
		return &CongressDeltaMaintainer{d}, nil
	case KindCongress:
		if st.Budget <= 0 {
			return nil, fmt.Errorf("budget %d", st.Budget)
		}
		m := &CongressMaintainer{groupCube: gc, y: float64(st.Budget), rng: rng,
			items: make([]congItem, len(st.Items)), rebalanceEvery: st.RebalanceEvery}
		for i, it := range st.Items {
			if it.P <= 0 || it.P > 1 {
				return nil, fmt.Errorf("item %d has probability %v outside (0,1]", i, it.P)
			}
			slot, err := slotOf(it.ID.Key())
			if err != nil {
				return nil, fmt.Errorf("item %d: %w", i, err)
			}
			m.items[i] = congItem{row: it.Row, slot: slot, p: it.P}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("unknown maintainer kind %q", st.Kind)
	}
}

// checkRows rejects a state holding a sampled row whose width differs
// from the schema's: maintainers read grouping columns from every row
// they evict or snapshot.
func checkRows(st *MaintainerState, width int) error {
	var rows []engine.Row
	if st.Reservoir != nil {
		rows = append(rows, st.Reservoir.Items...)
	}
	for _, rs := range st.Groups {
		if rs != nil {
			rows = append(rows, rs.Items...)
		}
	}
	for _, d := range st.Delta {
		rows = append(rows, d...)
	}
	for _, it := range st.Items {
		rows = append(rows, it.Row)
	}
	if slices.ContainsFunc(rows, func(row engine.Row) bool { return len(row) != width }) {
		return fmt.Errorf("a sampled row does not have the schema's %d columns", width)
	}
	return nil
}
