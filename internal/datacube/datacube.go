// Package datacube maintains tuple counts for every group under every
// grouping T ⊆ G of a relation's grouping attributes — the "data cube of
// the counts of each group in all possible groupings" that Section 6 of
// the paper uses to size congressional samples.
//
// The cube interns each finest group (one value per attribute of G) as
// a dense slot the first time the group appears. Only then is the group
// projected under every mask, and the slot records its coarse group
// index per mask. Counts are dense []int64 per mask, indexed by coarse
// group, so an insert into an existing group costs one key lookup plus
// 2^|G| array increments — the paper's per-insert bookkeeping for
// Congress maintenance — and no string building. Measure SUM and
// non-null COUNT live only per finest slot and are rolled up into a
// mask's coarse groups on read (see measures.go).
package datacube

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// KeySep separates per-attribute key components inside a composite group
// key. Attribute keys produced by engine.Value.GroupKey begin with a
// NUL byte, so the separator cannot collide with key contents.
const KeySep = "\x1f"

// GroupID identifies a tuple's group at the finest partitioning: one
// canonical key string per grouping attribute, in attribute order.
type GroupID []string

// Project returns the composite key of the group this tuple belongs to
// under the grouping selected by mask (bit i set = attribute i present).
// The empty grouping projects to the empty string: all tuples share one
// group, per the paper's convention that a query with no group-by
// returns a single group.
func (g GroupID) Project(mask uint32) string {
	if mask == 0 {
		return ""
	}
	var b strings.Builder
	for i, part := range g {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(KeySep)
		}
		b.WriteString(part)
	}
	return b.String()
}

// appendKey appends the finest composite key to dst.
func (g GroupID) appendKey(dst []byte) []byte {
	for i, part := range g {
		if i > 0 {
			dst = append(dst, KeySep...)
		}
		dst = append(dst, part...)
	}
	return dst
}

// Key returns the finest-grouping composite key (all attributes).
func (g GroupID) Key() string {
	return string(g.appendKey(nil))
}

// Cube counts tuples per group for all 2^n groupings over n grouping
// attributes. A finest group is a slot: slots are numbered densely in
// creation order and looked up by their finest key, and coarse groups
// are keyed by the slot's parts projected under each mask. A synopsis
// keeps exactly one cube: its parts are the per-attribute engine group
// keys, so a slot's finest key is GroupID.Key() of its parts, and the
// same cube carries the measures its hybrid answers read. Intern accepts
// any key for the parts given; a caller whose parts differ from the key
// gets slots that may share every coarse group, the finest one included.
type Cube struct {
	attrs []string
	nm    int // 2^|G|: masks per slot

	slotOf map[string]int32 // finest key -> slot
	keys   []string         // slot -> finest key
	ids    []GroupID        // slot -> parts, one per attribute
	n      []int64          // slot -> tuples
	coarse []int32          // coarse[slot*nm+mask] = the slot's group under mask
	groups []coarseGroups   // per mask
	total  int64

	// Optional exact measures (see measures.go), per finest slot. Nil
	// slices when the cube tracks counts only.
	measures []string
	mIndex   map[string]int
	sums     [][]float64 // sums[measure][slot]
	nonNull  [][]int64   // nonNull[measure][slot]

	// order is the roll-up order: the slots sorted by finest key as of
	// the last read that needed it. Reads extend it under orderMu, so
	// concurrent readers of an otherwise unchanging cube stay safe.
	orderMu sync.Mutex
	order   []int32
}

// coarseGroups holds the groups of one grouping T, densely indexed.
type coarseGroups struct {
	index    map[string]int32 // composite key -> group index
	keys     []string         // group index -> composite key
	rep      []int32          // group index -> its first slot
	counts   []int64          // group index -> n_h
	nonEmpty int              // m_T: groups with a positive count
}

// MaxAttrs bounds the number of grouping attributes; the cube costs
// 2^n counters per tuple, so n is kept small (the paper uses 3).
const MaxAttrs = 16

// New creates a cube over the named grouping attributes.
func New(attrs []string) (*Cube, error) {
	if len(attrs) == 0 {
		return nil, errors.New("datacube: need at least one grouping attribute")
	}
	if len(attrs) > MaxAttrs {
		return nil, fmt.Errorf("datacube: %d grouping attributes exceeds limit %d", len(attrs), MaxAttrs)
	}
	c := &Cube{
		attrs:  append([]string(nil), attrs...),
		nm:     1 << uint(len(attrs)),
		slotOf: make(map[string]int32),
	}
	c.groups = make([]coarseGroups, c.nm)
	for i := range c.groups {
		c.groups[i].index = make(map[string]int32)
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(attrs []string) *Cube {
	c, err := New(attrs)
	if err != nil {
		panic(err)
	}
	return c
}

// Attrs returns the grouping attribute names.
func (c *Cube) Attrs() []string { return c.attrs }

// NumAttrs returns |G|.
func (c *Cube) NumAttrs() int { return len(c.attrs) }

// NumGroupings returns 2^|G|.
func (c *Cube) NumGroupings() int { return c.nm }

// Lookup returns the slot of the finest group with the given key. It
// does not allocate.
func (c *Cube) Lookup(key []byte) (int, bool) {
	s, ok := c.slotOf[string(key)]
	return int(s), ok
}

// Intern returns the slot of the finest group with the given key,
// creating it with the given parts (one per attribute) on first sight.
// Only a new slot is projected under every mask. A new slot holds no
// tuples until AddSlot or AddMeasuredSlot.
func (c *Cube) Intern(key []byte, id GroupID) (int, error) {
	if s, ok := c.slotOf[string(key)]; ok {
		return int(s), nil
	}
	if len(id) != len(c.attrs) {
		return 0, fmt.Errorf("datacube: group id has %d parts, cube has %d attributes", len(id), len(c.attrs))
	}
	s := int32(len(c.keys))
	k := string(key)
	c.slotOf[k] = s
	c.keys = append(c.keys, k)
	c.ids = append(c.ids, append(GroupID(nil), id...))
	c.n = append(c.n, 0)
	for mask := range c.groups {
		g := &c.groups[mask]
		h := id.Project(uint32(mask))
		ci, ok := g.index[h]
		if !ok {
			ci = int32(len(g.keys))
			g.index[h] = ci
			g.keys = append(g.keys, h)
			g.rep = append(g.rep, s)
			g.counts = append(g.counts, 0)
		}
		c.coarse = append(c.coarse, ci)
	}
	for mi := range c.measures {
		c.sums[mi] = append(c.sums[mi], 0)
		c.nonNull[mi] = append(c.nonNull[mi], 0)
	}
	return int(s), nil
}

// intern is Intern keyed by the parts' own composite key.
func (c *Cube) intern(id GroupID) (int, error) {
	var buf [128]byte
	return c.Intern(id.appendKey(buf[:0]), id)
}

// AddSlot records n ≥ 0 tuples of the slot's finest group, updating
// every grouping's counter.
func (c *Cube) AddSlot(slot int, n int64) {
	base := slot * c.nm
	for mask := range c.groups {
		g := &c.groups[mask]
		ci := c.coarse[base+mask]
		if g.counts[ci] == 0 && n > 0 {
			g.nonEmpty++
		}
		g.counts[ci] += n
	}
	c.n[slot] += n
	c.total += n
}

// Add records one tuple belonging to the given finest group, updating
// every grouping's counter.
func (c *Cube) Add(id GroupID) error {
	return c.AddN(id, 1)
}

// AddN records n tuples belonging to the given finest group at once,
// updating every grouping's counter. It is Add generalized to a batch;
// Restore uses it to rebuild a cube from finest-group counts.
func (c *Cube) AddN(id GroupID, n int64) error {
	if len(id) != len(c.attrs) {
		return fmt.Errorf("datacube: group id has %d parts, cube has %d attributes", len(id), len(c.attrs))
	}
	if n < 0 {
		return fmt.Errorf("datacube: negative group count %d", n)
	}
	if n == 0 {
		return nil
	}
	s, err := c.intern(id)
	if err != nil {
		return err
	}
	c.AddSlot(s, n)
	return nil
}

// NumSlots returns the number of interned finest slots.
func (c *Cube) NumSlots() int { return len(c.keys) }

// SlotKey returns the finest key the slot was interned under.
func (c *Cube) SlotKey(slot int) string { return c.keys[slot] }

// SlotID returns the slot's parts. The slice is shared; do not modify.
func (c *Cube) SlotID(slot int) GroupID { return c.ids[slot] }

// SlotCount returns the count of the group the slot belongs to under
// grouping mask: n_{g(τ,T)} in Eq. 8 for a tuple τ of the slot.
func (c *Cube) SlotCount(mask uint32, slot int) int64 {
	return c.groups[mask].counts[c.coarse[slot*c.nm+int(mask)]]
}

// SlotGroupKey returns the composite key of the group the slot belongs
// to under grouping mask.
func (c *Cube) SlotGroupKey(mask uint32, slot int) string {
	return c.groups[mask].keys[c.coarse[slot*c.nm+int(mask)]]
}

// ID returns the GroupID that produced the given finest-group key.
func (c *Cube) ID(finestKey string) (GroupID, bool) {
	s, ok := c.slotOf[finestKey]
	if !ok {
		return nil, false
	}
	return c.ids[s], true
}

// FinestSlots calls fn for each non-empty finest slot with its finest
// key and tuple count, in slot creation order.
func (c *Cube) FinestSlots(fn func(slot int, key string, count int64)) {
	for s, n := range c.n {
		if n > 0 {
			fn(s, c.keys[s], n)
		}
	}
}

// FinestIDs calls fn for each non-empty finest group with its GroupID
// and count, in slot creation order.
func (c *Cube) FinestIDs(fn func(id GroupID, key string, count int64)) {
	c.FinestSlots(func(s int, key string, n int64) { fn(c.ids[s], key, n) })
}

// FinestGroups calls fn for each non-empty finest group with its count,
// in slot creation order.
func (c *Cube) FinestGroups(fn func(key string, count int64)) {
	c.FinestSlots(func(_ int, key string, n int64) { fn(key, n) })
}

// Total returns the number of tuples recorded.
func (c *Cube) Total() int64 { return c.total }

// Count returns n_h: the number of tuples in the group identified by the
// composite key under the grouping selected by mask.
func (c *Cube) Count(mask uint32, key string) int64 {
	g := &c.groups[mask]
	ci, ok := g.index[key]
	if !ok {
		return 0
	}
	return g.counts[ci]
}

// CountFor returns the count of the group that a tuple with the given
// finest GroupID belongs to under grouping mask (n_{g(τ,T)} in Eq. 8).
func (c *Cube) CountFor(mask uint32, id GroupID) int64 {
	return c.Count(mask, id.Project(mask))
}

// NumGroups returns m_T: the number of non-empty groups under the
// grouping selected by mask.
func (c *Cube) NumGroups(mask uint32) int {
	return c.groups[mask].nonEmpty
}

// FinestMask returns the mask selecting all attributes.
func (c *Cube) FinestMask() uint32 {
	return uint32(c.nm - 1)
}

// GroupsUnder calls fn for each non-empty group under grouping mask, in
// group creation order.
func (c *Cube) GroupsUnder(mask uint32, fn func(key string, count int64)) {
	g := &c.groups[mask]
	for ci, n := range g.counts {
		if n > 0 {
			fn(g.keys[ci], n)
		}
	}
}

// Merge folds another cube into this one. Both cubes must be defined
// over the same grouping attributes and measures (in the same order).
// Merging is how parallel one-pass construction combines per-worker
// partial cubes into the full data cube; counts are additive, so the
// result is identical to a single sequential scan.
func (c *Cube) Merge(other *Cube) error {
	if len(other.attrs) != len(c.attrs) {
		return fmt.Errorf("datacube: merging cube with %d attributes into cube with %d", len(other.attrs), len(c.attrs))
	}
	for i, a := range c.attrs {
		if other.attrs[i] != a {
			return fmt.Errorf("datacube: merging cube over %v into cube over %v", other.attrs, c.attrs)
		}
	}
	if !sameMeasures(c, other) {
		return fmt.Errorf("datacube: merging cube over measures %v into cube over measures %v", other.measures, c.measures)
	}
	for os, key := range other.keys {
		s, err := c.Intern([]byte(key), other.ids[os])
		if err != nil {
			return err
		}
		c.AddSlot(s, other.n[os])
		for mi := range c.measures {
			c.sums[mi][s] += other.sums[mi][os]
			c.nonNull[mi][s] += other.nonNull[mi][os]
		}
	}
	return nil
}

// Clone returns a deep copy of the cube.
func (c *Cube) Clone() *Cube {
	out, err := NewWithMeasures(c.attrs, c.measures)
	if err != nil {
		panic(err)
	}
	if err := out.Merge(c); err != nil {
		panic(err)
	}
	return out
}

// rollupOrder returns every slot sorted by finest key. Roll-ups sum
// slots in this order, so a rolled-up value depends only on the finest
// state, not on the order slots were created in: a live cube and one
// restored from its State agree bit for bit.
func (c *Cube) rollupOrder() []int32 {
	c.orderMu.Lock()
	defer c.orderMu.Unlock()
	if len(c.order) == len(c.keys) {
		return c.order
	}
	// Extend the previous order with the new slots and re-sort; readers
	// may still hold the old slice, so it is copied, never sorted in place.
	order := make([]int32, len(c.keys))
	copy(order, c.order)
	for i := len(c.order); i < len(order); i++ {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return c.keys[order[i]] < c.keys[order[j]] })
	c.order = order
	return order
}
