package core

import (
	"fmt"
	"math/rand"

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
	// during the call.
	InsertKeyed(row engine.Row, key []byte)
	// Snapshot returns the current sample as strata keyed by finest
	// group, with populations for scale-factor computation.
	Snapshot() (*sample.Stratified[engine.Row], error)
	// SampledCount returns the current number of sampled tuples.
	SampledCount() int
	// SeenCount returns the number of tuples inserted so far.
	SeenCount() int64
}

// HouseMaintainer maintains a House sample: a single reservoir of
// capacity X over the whole insert stream, plus per-group population
// counts so Snapshot can report per-stratum scale factors.
type HouseMaintainer struct {
	g    *Grouping
	res  *sample.Reservoir[engine.Row]
	pops map[string]int64
	seen int64
}

// NewHouseMaintainer creates a House maintainer with capacity x.
func NewHouseMaintainer(g *Grouping, x int, rng *rand.Rand) (*HouseMaintainer, error) {
	res, err := sample.NewReservoir[engine.Row](x, rng)
	if err != nil {
		return nil, err
	}
	return &HouseMaintainer{g: g, res: res, pops: make(map[string]int64)}, nil
}

// Insert implements Maintainer.
func (m *HouseMaintainer) Insert(row engine.Row) {
	var buf [64]byte
	m.InsertKeyed(row, m.g.AppendKey(buf[:0], row))
}

// InsertKeyed implements Maintainer.
func (m *HouseMaintainer) InsertKeyed(row engine.Row, key []byte) {
	m.pops[string(key)]++
	m.seen++
	m.res.Offer(row)
}

// SampledCount implements Maintainer.
func (m *HouseMaintainer) SampledCount() int { return m.res.Len() }

// SeenCount implements Maintainer.
func (m *HouseMaintainer) SeenCount() int64 { return m.seen }

// Snapshot implements Maintainer.
func (m *HouseMaintainer) Snapshot() (*sample.Stratified[engine.Row], error) {
	st := sample.NewStratified[engine.Row]()
	for key, pop := range m.pops {
		st.Put(&sample.Stratum[engine.Row]{Key: key, Population: pop})
	}
	for _, row := range m.res.Items() {
		key := m.g.Key(row)
		s, ok := st.Get(key)
		if !ok {
			// Every sampled row's group must have a population entry; a
			// miss means the maintainer state is internally inconsistent
			// (e.g. a restore fed rows the population map never saw).
			return nil, fmt.Errorf("core: house maintainer holds a sampled row for group %q with no population entry", key)
		}
		s.Items = append(s.Items, row)
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
	g      *Grouping
	x      int
	rng    *rand.Rand
	groups map[string]*sample.Reservoir[engine.Row]
	pops   map[string]int64
	seen   int64
}

// NewSenateMaintainer creates a Senate maintainer with budget x.
func NewSenateMaintainer(g *Grouping, x int, rng *rand.Rand) (*SenateMaintainer, error) {
	if x <= 0 {
		return nil, errBudget
	}
	return &SenateMaintainer{
		g:      g,
		x:      x,
		rng:    rng,
		groups: make(map[string]*sample.Reservoir[engine.Row]),
		pops:   make(map[string]int64),
	}, nil
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
func (m *SenateMaintainer) InsertKeyed(row engine.Row, keyBytes []byte) {
	key := string(keyBytes)
	m.pops[key]++
	m.seen++
	res, ok := m.groups[key]
	if !ok {
		res = sample.MustReservoir[engine.Row](m.target(), m.rng)
		m.groups[key] = res
		// A new group shrinks everyone's target; evict lazily now so
		// the total returns under budget.
		m.shrinkAll()
	}
	res.Offer(row)
	// The shared target may have shrunk since this reservoir last saw a
	// tuple; trim it opportunistically.
	if t := m.target(); res.Len() > t {
		mustShrink(res, t, m.rng)
	}
}

func (m *SenateMaintainer) shrinkAll() {
	t := m.target()
	for _, res := range m.groups {
		if res.Len() > t || res.Cap() > t {
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

// SeenCount implements Maintainer.
func (m *SenateMaintainer) SeenCount() int64 { return m.seen }

// Snapshot implements Maintainer.
func (m *SenateMaintainer) Snapshot() (*sample.Stratified[engine.Row], error) {
	st := sample.NewStratified[engine.Row]()
	for key, res := range m.groups {
		st.Put(&sample.Stratum[engine.Row]{
			Key:        key,
			Population: m.pops[key],
			Items:      append([]engine.Row(nil), res.Items()...),
		})
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
