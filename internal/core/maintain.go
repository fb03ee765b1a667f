package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// Maintainer is an incrementally maintained biased sample: tuples
// inserted into the warehouse are offered to the maintainer, which keeps
// its sample valid without ever re-reading the base relation
// (Section 6). Snapshot materializes the current stratified sample.
type Maintainer interface {
	// Insert offers one newly inserted tuple.
	Insert(row engine.Row)
	// InsertKeyed is Insert for a caller that already computed the row's
	// finest group key with Grouping.AppendKey. The key is only read
	// during the call. It returns the row's slot in Cube(), where the
	// caller may add the row's measures.
	InsertKeyed(row engine.Row, key []byte) int
	// Cube returns the group cube every inserted tuple is counted in. The
	// maintainer reads its group counts (n_g, n_{g,T}, m_T) from it.
	Cube() *datacube.Cube
	// Snapshot returns the current sample as strata keyed by finest
	// group, with populations for scale-factor computation.
	Snapshot() (*sample.Stratified[engine.Row], error)
	// SampledCount returns the current number of sampled tuples.
	SampledCount() int
	// SeenCount returns the number of tuples inserted so far.
	SeenCount() int64
}

// groupCube is the part every maintainer shares: the grouping and the
// synopsis's group cube. An insert is counted once, in the cube, and the
// maintainer reads populations back from it, so no maintainer keeps
// group counts of its own.
type groupCube struct {
	g    *Grouping
	cube *datacube.Cube
	key  []byte // scratch for the keys of rows already counted
}

// newGroupCube pairs g with cube, or with a new count-only cube over g's
// attributes when cube is nil.
func newGroupCube(g *Grouping, cube *datacube.Cube) (groupCube, error) {
	if cube == nil {
		var err error
		if cube, err = datacube.New(g.Attrs); err != nil {
			return groupCube{}, err
		}
	}
	if !slices.Equal(cube.Attrs(), g.Attrs) {
		return groupCube{}, fmt.Errorf("core: cube over %v cannot back a maintainer grouping by %v", cube.Attrs(), g.Attrs)
	}
	return groupCube{g: g, cube: cube}, nil
}

// Cube implements Maintainer.
func (c *groupCube) Cube() *datacube.Cube { return c.cube }

// SeenCount implements Maintainer: the cube counts every inserted tuple.
func (c *groupCube) SeenCount() int64 { return c.cube.Total() }

// count records one row, whose finest key the caller computed, in the
// cube and returns the row's slot.
func (c *groupCube) count(row engine.Row, key []byte) int {
	slot := c.g.slot(c.cube, row, key)
	c.cube.AddSlot(slot, 1)
	return slot
}

// pop returns n_g for the finest group of the slot.
func (c *groupCube) pop(slot int) int64 {
	return c.cube.SlotCount(c.cube.FinestMask(), slot)
}

// rowKey computes the finest key of a row into the scratch buffer.
func (c *groupCube) rowKey(row engine.Row) []byte {
	c.key = c.g.AppendKey(c.key[:0], row)
	return c.key
}

// newSnapshot returns an empty stratum, registered in st, for every
// non-empty finest group, holding the group's population. strata is
// indexed by slot and is nil at slots with no tuples.
func (c *groupCube) newSnapshot() (st *sample.Stratified[engine.Row], strata []*sample.Stratum[engine.Row]) {
	st = sample.NewStratified[engine.Row]()
	strata = make([]*sample.Stratum[engine.Row], c.cube.NumSlots())
	c.cube.FinestSlots(func(slot int, key string, n int64) {
		strata[slot] = &sample.Stratum[engine.Row]{Key: key, Population: n}
		st.Put(strata[slot])
	})
	return st, strata
}

// placeRow appends a sampled row to the stratum of its own group. A
// row whose group has no population means the maintainer state is
// internally inconsistent (e.g. a restore fed rows the cube never
// counted).
func (c *groupCube) placeRow(strata []*sample.Stratum[engine.Row], row engine.Row) error {
	slot, ok := c.cube.Lookup(c.rowKey(row))
	if !ok || strata[slot] == nil {
		return fmt.Errorf("core: maintainer holds a sampled row for group %q with no population", c.key)
	}
	strata[slot].Items = append(strata[slot].Items, row)
	return nil
}

// HouseMaintainer maintains a House sample: a single reservoir of
// capacity X over the whole insert stream. Per-group populations come
// from the cube, so Snapshot can report per-stratum scale factors.
type HouseMaintainer struct {
	groupCube
	res *sample.Reservoir[engine.Row]
}

// NewHouseMaintainer creates a House maintainer with capacity x that
// counts into cube (nil: a count-only cube of its own).
func NewHouseMaintainer(g *Grouping, cube *datacube.Cube, x int, rng *rand.Rand) (*HouseMaintainer, error) {
	gc, err := newGroupCube(g, cube)
	if err != nil {
		return nil, err
	}
	res, err := sample.NewReservoir[engine.Row](x, rng)
	if err != nil {
		return nil, err
	}
	return &HouseMaintainer{groupCube: gc, res: res}, nil
}

// Insert implements Maintainer.
func (m *HouseMaintainer) Insert(row engine.Row) {
	var buf [64]byte
	m.InsertKeyed(row, m.g.AppendKey(buf[:0], row))
}

// InsertKeyed implements Maintainer.
func (m *HouseMaintainer) InsertKeyed(row engine.Row, key []byte) int {
	slot := m.count(row, key)
	m.res.Offer(row)
	return slot
}

// SampledCount implements Maintainer.
func (m *HouseMaintainer) SampledCount() int { return m.res.Len() }

// Snapshot implements Maintainer.
func (m *HouseMaintainer) Snapshot() (*sample.Stratified[engine.Row], error) {
	st, strata := m.newSnapshot()
	for _, row := range m.res.Items() {
		if err := m.placeRow(strata, row); err != nil {
			return nil, err
		}
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// SenateMaintainer maintains a Senate sample: one reservoir per
// non-empty finest group, each targeting X/m tuples where m is the
// current number of groups. When a new group appears, existing
// reservoirs are lazily shrunk toward the reduced target so the total
// stays within X, exactly as Section 6 prescribes.
type SenateMaintainer struct {
	groupCube
	x      int
	rng    *rand.Rand
	groups []*sample.Reservoir[engine.Row] // by cube slot
	// byKey lists the slots in finest-key order, the order shrinkAll
	// visits them in. Slot numbers follow arrival on a live cube but
	// key order on a restored one, so visiting by slot would make a
	// restored maintainer draw differently from the live one.
	byKey []int
}

// NewSenateMaintainer creates a Senate maintainer with budget x that
// counts into cube (nil: a count-only cube of its own).
func NewSenateMaintainer(g *Grouping, cube *datacube.Cube, x int, rng *rand.Rand) (*SenateMaintainer, error) {
	if x <= 0 {
		return nil, errBudget
	}
	gc, err := newGroupCube(g, cube)
	if err != nil {
		return nil, err
	}
	return &SenateMaintainer{groupCube: gc, x: x, rng: rng}, nil
}

// target returns the per-group capacity X/m (at least 1).
func (m *SenateMaintainer) target() int {
	if len(m.groups) == 0 {
		return m.x
	}
	t := m.x / len(m.groups)
	if t < 1 {
		t = 1
	}
	return t
}

// Insert implements Maintainer.
func (m *SenateMaintainer) Insert(row engine.Row) {
	var buf [64]byte
	m.InsertKeyed(row, m.g.AppendKey(buf[:0], row))
}

// InsertKeyed implements Maintainer.
func (m *SenateMaintainer) InsertKeyed(row engine.Row, key []byte) int {
	slot := m.count(row, key)
	for len(m.groups) <= slot {
		m.addSlotByKey(len(m.groups))
		m.groups = append(m.groups, sample.MustReservoir[engine.Row](m.target(), m.rng))
		// A new group shrinks everyone's target; evict lazily now so
		// the total returns under budget.
		m.shrinkAll()
	}
	res := m.groups[slot]
	res.Offer(row)
	// The shared target may have shrunk since this reservoir last saw a
	// tuple; trim it opportunistically.
	if t := m.target(); res.Len() > t {
		mustShrink(res, t, m.rng)
	}
	return slot
}

// addSlotByKey inserts slot into byKey at its finest-key position.
func (m *SenateMaintainer) addSlotByKey(slot int) {
	key := m.cube.SlotKey(slot)
	i, _ := slices.BinarySearchFunc(m.byKey, key, func(s int, k string) int {
		return strings.Compare(m.cube.SlotKey(s), k)
	})
	m.byKey = slices.Insert(m.byKey, i, slot)
}

func (m *SenateMaintainer) shrinkAll() {
	t := m.target()
	for _, slot := range m.byKey {
		if res := m.groups[slot]; res.Len() > t || res.Cap() > t {
			mustShrink(res, t, m.rng)
		}
	}
}

// mustShrink applies a reservoir shrink whose target the caller has
// already floored at 1 (SenateMaintainer.target documents that floor: a
// group never drops below one slot even when m > X). A capacity
// underflow here is therefore a maintainer bug, not a data condition.
func mustShrink(res *sample.Reservoir[engine.Row], t int, rng *rand.Rand) {
	if _, err := res.Shrink(t, rng); err != nil {
		panic(fmt.Sprintf("core: senate shrink to floored target %d: %v", t, err))
	}
}

// SampledCount implements Maintainer.
func (m *SenateMaintainer) SampledCount() int {
	n := 0
	for _, res := range m.groups {
		n += res.Len()
	}
	return n
}

// Snapshot implements Maintainer.
func (m *SenateMaintainer) Snapshot() (*sample.Stratified[engine.Row], error) {
	st := sample.NewStratified[engine.Row]()
	for slot, res := range m.groups {
		st.Put(&sample.Stratum[engine.Row]{
			Key:        m.cube.SlotKey(slot),
			Population: m.pop(slot),
			Items:      append([]engine.Row(nil), res.Items()...),
		})
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
