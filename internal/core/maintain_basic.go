package core

import (
	"fmt"
	"math/rand"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// BasicCongressMaintainer incrementally maintains a Basic Congress
// sample per the Section 6 algorithm: a single reservoir sample of size
// Y over the entire relation, plus per-group "delta" uniform samples
// holding the extra tuples that small groups need beyond their share of
// the reservoir. Theorem 6.1 proves this maintains a valid basic
// congressional sample; TestBasicCongressMaintainerUniformity checks the
// delta-uniformity invariant empirically.
type BasicCongressMaintainer struct {
	g   *Grouping
	y   int
	rng *rand.Rand

	res   *sample.Reservoir[engine.Row]
	slots groupSlots     // finest group key -> slot
	pops  []int64        // n_g, by slot
	x     []int          // tuples per group currently in the reservoir
	delta [][]engine.Row // per-group spill-over uniform samples
	seen  int64
	key   []byte // scratch for evicted rows' keys
}

// groupSlots numbers finest group keys densely in first-seen order, so
// per-group state lives in slices indexed by slot.
type groupSlots struct {
	index map[string]int
	keys  []string
}

// lookup returns the slot of key. It does not allocate.
func (g *groupSlots) lookup(key []byte) (int, bool) {
	s, ok := g.index[string(key)]
	return s, ok
}

// intern returns the slot of key, numbering it on first sight.
func (g *groupSlots) intern(key []byte) int {
	if s, ok := g.index[string(key)]; ok {
		return s
	}
	if g.index == nil {
		g.index = make(map[string]int)
	}
	s := len(g.keys)
	k := string(key)
	g.index[k] = s
	g.keys = append(g.keys, k)
	return s
}

// NewBasicCongressMaintainer creates a maintainer with reservoir size y
// (the pre-scaling allocation; see the discussion after Theorem 6.1 on
// the fluctuating total size).
func NewBasicCongressMaintainer(g *Grouping, y int, rng *rand.Rand) (*BasicCongressMaintainer, error) {
	res, err := sample.NewReservoir[engine.Row](y, rng)
	if err != nil {
		return nil, err
	}
	return &BasicCongressMaintainer{g: g, y: y, rng: rng, res: res}, nil
}

// slotFor returns the slot of the group with the given key, sizing the
// per-slot state to cover it.
func (m *BasicCongressMaintainer) slotFor(key []byte) int {
	slot := m.slots.intern(key)
	for len(m.pops) <= slot {
		m.pops = append(m.pops, 0)
		m.x = append(m.x, 0)
		m.delta = append(m.delta, nil)
	}
	return slot
}

// target is the Senate-side per-group requirement Y/m.
func (m *BasicCongressMaintainer) target() float64 {
	if len(m.pops) == 0 {
		return float64(m.y)
	}
	return float64(m.y) / float64(len(m.pops))
}

// Insert implements Maintainer.
func (m *BasicCongressMaintainer) Insert(row engine.Row) {
	var buf [64]byte
	m.InsertKeyed(row, m.g.AppendKey(buf[:0], row))
}

// InsertKeyed implements Maintainer, following the four cases of the
// paper's algorithm. Step 4 (new group): m grows, so every group's delta
// target shrinks; evictions happen lazily as groups are touched, and we
// trim the group we touch below.
func (m *BasicCongressMaintainer) InsertKeyed(row engine.Row, key []byte) {
	slot := m.slotFor(key)
	m.pops[slot]++
	m.seen++
	target := m.target()

	evicted, hadEviction, accepted := m.res.Offer(row)
	switch {
	case !accepted:
		// Step 1 — common case — except the step-4 small-group rule:
		// while a group is smaller than its target, every tuple that
		// misses the reservoir goes to the delta sample, keeping the
		// group fully represented.
		if float64(m.pops[slot]) <= target {
			m.delta[slot] = append(m.delta[slot], row)
		}
	case !hadEviction:
		// Reservoir still filling: the tuple joined the reservoir.
		m.x[slot]++
	default:
		m.key = m.g.AppendKey(m.key[:0], evicted)
		ev := m.slotFor(m.key)
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
		if float64(m.x[ev]) < target {
			m.delta[ev] = append(m.delta[ev], evicted)
		}
	}
	m.trimDelta(slot, target)
}

// evictDelta removes one uniformly random tuple from a delta sample.
func (m *BasicCongressMaintainer) evictDelta(slot int) {
	d := m.delta[slot]
	i := m.rng.Intn(len(d))
	last := len(d) - 1
	d[i] = d[last]
	m.delta[slot] = d[:last]
}

// trimDelta enforces |Δ_g| ≤ max(0, ⌈target⌉ − x_g) by uniformly random
// eviction — the lazy eviction of step 4 (random eviction preserves the
// uniform-sample property per Theorem 6.1).
func (m *BasicCongressMaintainer) trimDelta(slot int, target float64) {
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
func (m *BasicCongressMaintainer) Compact() {
	target := m.target()
	for slot, d := range m.delta {
		if len(d) > 0 {
			m.trimDelta(slot, target)
		}
	}
}

// SampledCount implements Maintainer.
func (m *BasicCongressMaintainer) SampledCount() int {
	n := m.res.Len()
	for _, d := range m.delta {
		n += len(d)
	}
	return n
}

// SeenCount implements Maintainer.
func (m *BasicCongressMaintainer) SeenCount() int64 { return m.seen }

// Snapshot implements Maintainer: each stratum holds the group's
// reservoir tuples plus its delta sample.
func (m *BasicCongressMaintainer) Snapshot() (*sample.Stratified[engine.Row], error) {
	m.Compact()
	strata := make([]*sample.Stratum[engine.Row], len(m.pops))
	st := sample.NewStratified[engine.Row]()
	for slot, pop := range m.pops {
		if pop > 0 {
			strata[slot] = &sample.Stratum[engine.Row]{Key: m.slots.keys[slot], Population: pop}
			st.Put(strata[slot])
		}
	}
	for _, row := range m.res.Items() {
		m.key = m.g.AppendKey(m.key[:0], row)
		slot, ok := m.slots.lookup(m.key)
		if !ok || strata[slot] == nil {
			return nil, fmt.Errorf("core: basic congress maintainer holds a reservoir row for group %q with no population entry", m.key)
		}
		strata[slot].Items = append(strata[slot].Items, row)
	}
	for slot, d := range m.delta {
		if len(d) == 0 {
			continue
		}
		if strata[slot] == nil {
			return nil, fmt.Errorf("core: basic congress maintainer holds a delta sample for group %q with no population entry", m.slots.keys[slot])
		}
		strata[slot].Items = append(strata[slot].Items, d...)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
