package core

import (
	"math/rand"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// CongressMaintainer incrementally maintains a Congress sample via the
// Eq. 8 per-tuple selection probabilities, as described at the end of
// Section 6: each inserted tuple τ is selected with probability
//
//	p(τ) = min(1, max over T ⊆ G of Y / (m_T · n_{g(τ,T)}))
//
// using the current group counts. Because m_T and n_g only grow, the
// selection probability of any group only decreases over time; when the
// probability for a group's tuples has dropped from p to q, each sampled
// tuple of that group survives a subsampling coin flip with probability
// q/p. The paper applies this decay eagerly per insert; we apply it
// lazily (the stored probability is decayed at snapshot time and
// periodically), which yields the same distribution since the coin flips
// compose multiplicatively.
type CongressMaintainer struct {
	g   *Grouping
	y   float64
	rng *rand.Rand

	cube  *datacube.Cube
	items []congItem
	seen  int64

	// rebalanceEvery bounds memory: a full lazy-decay pass runs after
	// this many inserts. 0 disables periodic rebalancing.
	rebalanceEvery int64
}

type congItem struct {
	row  engine.Row
	slot int     // the tuple's finest group in cube
	p    float64 // probability this tuple is (still) in the sample
}

// NewCongressMaintainer creates a maintainer with pre-scaling space
// parameter y (Section 6 fixes Y; the realized sample size fluctuates
// with the data distribution and can be subsampled to a hard budget with
// SubsampleTo).
func NewCongressMaintainer(g *Grouping, y int, rng *rand.Rand) (*CongressMaintainer, error) {
	if y <= 0 {
		return nil, errBudget
	}
	cube, err := datacube.New(g.Attrs)
	if err != nil {
		return nil, err
	}
	return &CongressMaintainer{
		g:              g,
		y:              float64(y),
		rng:            rng,
		cube:           cube,
		rebalanceEvery: 4 * int64(y),
	}, nil
}

// prob computes the current Eq. 8 selection probability for a tuple in
// the finest group of the given cube slot.
func (m *CongressMaintainer) prob(slot int) float64 {
	best := 0.0
	for mask := uint32(0); int(mask) < m.cube.NumGroupings(); mask++ {
		mT := float64(m.cube.NumGroups(mask))
		ng := float64(m.cube.SlotCount(mask, slot))
		if mT == 0 || ng == 0 {
			continue
		}
		if p := m.y / (mT * ng); p > best {
			best = p
		}
	}
	if best > 1 {
		return 1
	}
	return best
}

// Insert implements Maintainer.
func (m *CongressMaintainer) Insert(row engine.Row) {
	var buf [64]byte
	m.InsertKeyed(row, m.g.AppendKey(buf[:0], row))
}

// InsertKeyed implements Maintainer.
func (m *CongressMaintainer) InsertKeyed(row engine.Row, key []byte) {
	slot := m.g.slot(m.cube, row, key)
	m.cube.AddSlot(slot, 1)
	m.seen++
	p := m.prob(slot)
	if sample.Bernoulli(p, m.rng) {
		m.items = append(m.items, congItem{row: row, slot: slot, p: p})
	}
	if m.rebalanceEvery > 0 && m.seen%m.rebalanceEvery == 0 {
		m.Rebalance()
	}
}

// Rebalance applies the lazy probability decay: every sampled tuple
// whose current Eq. 8 probability q has fallen below its stored
// probability p is kept with probability q/p. After the pass each kept
// tuple's stored probability equals its current probability, restoring
// the Eq. 8 invariant exactly.
func (m *CongressMaintainer) Rebalance() {
	kept := m.items[:0]
	for _, it := range m.items {
		q := m.prob(it.slot)
		if q < it.p {
			if !sample.Bernoulli(q/it.p, m.rng) {
				continue
			}
			it.p = q
		}
		kept = append(kept, it)
	}
	m.items = kept
}

// SubsampleTo uniformly subsamples the current sample down to at most x
// tuples (the final step of the paper's one-pass construction: "running
// the algorithm with Y = X ... and then subsampling the sample to
// achieve the desired size X"). Uniform subsampling preserves each
// stratum's uniform-sample property.
func (m *CongressMaintainer) SubsampleTo(x int) {
	m.Rebalance()
	if len(m.items) <= x {
		return
	}
	idx := sample.SampleWithoutReplacement(len(m.items), x, m.rng)
	out := make([]congItem, 0, x)
	for _, i := range idx {
		out = append(out, m.items[i])
	}
	m.items = out
}

// SampledCount implements Maintainer.
func (m *CongressMaintainer) SampledCount() int { return len(m.items) }

// SeenCount implements Maintainer.
func (m *CongressMaintainer) SeenCount() int64 { return m.seen }

// Cube exposes the incrementally maintained group-count cube.
func (m *CongressMaintainer) Cube() *datacube.Cube { return m.cube }

// Snapshot implements Maintainer.
func (m *CongressMaintainer) Snapshot() (*sample.Stratified[engine.Row], error) {
	m.Rebalance()
	st := sample.NewStratified[engine.Row]()
	m.cube.FinestGroups(func(key string, pop int64) {
		st.Put(&sample.Stratum[engine.Row]{Key: key, Population: pop})
	})
	for _, it := range m.items {
		s, ok := st.Get(m.cube.SlotKey(it.slot))
		if ok {
			s.Items = append(s.Items, it.row)
		}
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
