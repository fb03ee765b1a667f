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
	groupCube
	y     float64
	rng   *rand.Rand
	items []congItem

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
// SubsampleTo) that counts into cube (nil: a count-only cube of its own).
func NewCongressMaintainer(g *Grouping, cube *datacube.Cube, y int, rng *rand.Rand) (*CongressMaintainer, error) {
	if y <= 0 {
		return nil, errBudget
	}
	gc, err := newGroupCube(g, cube)
	if err != nil {
		return nil, err
	}
	return &CongressMaintainer{
		groupCube:      gc,
		y:              float64(y),
		rng:            rng,
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
func (m *CongressMaintainer) InsertKeyed(row engine.Row, key []byte) int {
	slot := m.count(row, key)
	p := m.prob(slot)
	if sample.Bernoulli(p, m.rng) {
		m.items = append(m.items, congItem{row: row, slot: slot, p: p})
	}
	if m.rebalanceEvery > 0 && m.cube.Total()%m.rebalanceEvery == 0 {
		m.Rebalance()
	}
	return slot
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

// Snapshot implements Maintainer.
func (m *CongressMaintainer) Snapshot() (*sample.Stratified[engine.Row], error) {
	m.Rebalance()
	st, strata := m.newSnapshot()
	for _, it := range m.items {
		if s := strata[it.slot]; s != nil {
			s.Items = append(s.Items, it.row)
		}
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
