package core

import (
	"math/rand"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// CongressDeltaMaintainer is the paper's primary Congress maintenance
// algorithm: "a natural generalization to multiple groupings of the
// above algorithm for maintaining Basic Congress" (Section 6). Like
// BasicCongressMaintainer it keeps one reservoir of size Y over the
// whole relation plus per-finest-group delta samples; the difference is
// each group's requirement, which is the full Congress pre-scaling
// target
//
//	target(g) = max over T ⊆ G of (Y/m_T) · n_g/n_{g,T}
//
// instead of Basic Congress's max(house, Y/m). The incrementally
// maintained data cube supplies m_T and n_{g,T}; the per-insert
// bookkeeping is O(2^|G|), the cost the paper concedes for Congress
// maintenance.
type CongressDeltaMaintainer struct {
	g   *Grouping
	y   int
	rng *rand.Rand

	res   *sample.Reservoir[engine.Row]
	cube  *datacube.Cube
	x     []int          // reservoir tuples per finest group, by cube slot
	delta [][]engine.Row // spill-over uniform samples, by cube slot
	seen  int64
	key   []byte // scratch for evicted rows' keys
}

// NewCongressDeltaMaintainer creates a maintainer with pre-scaling space
// parameter y.
func NewCongressDeltaMaintainer(g *Grouping, y int, rng *rand.Rand) (*CongressDeltaMaintainer, error) {
	res, err := sample.NewReservoir[engine.Row](y, rng)
	if err != nil {
		return nil, err
	}
	cube, err := datacube.New(g.Attrs)
	if err != nil {
		return nil, err
	}
	return &CongressDeltaMaintainer{g: g, y: y, rng: rng, res: res, cube: cube}, nil
}

// target computes the Congress pre-scaling requirement for the finest
// group of the given cube slot.
func (m *CongressDeltaMaintainer) target(slot int) float64 {
	Y := float64(m.y)
	ng := float64(m.cube.SlotCount(m.cube.FinestMask(), slot))
	best := 0.0
	for mask := uint32(0); int(mask) < m.cube.NumGroupings(); mask++ {
		mT := float64(m.cube.NumGroups(mask))
		nh := float64(m.cube.SlotCount(mask, slot))
		if mT == 0 || nh == 0 {
			continue
		}
		if s := Y / mT * ng / nh; s > best {
			best = s
		}
	}
	return best
}

// slotFor returns the cube slot of the row with the given key, sizing
// the per-slot samples to cover it.
func (m *CongressDeltaMaintainer) slotFor(row engine.Row, key []byte) int {
	slot := m.g.slot(m.cube, row, key)
	for len(m.x) <= slot {
		m.x = append(m.x, 0)
		m.delta = append(m.delta, nil)
	}
	return slot
}

// slotOf is slotFor for a row whose key is not at hand.
func (m *CongressDeltaMaintainer) slotOf(row engine.Row) int {
	m.key = m.g.AppendKey(m.key[:0], row)
	return m.slotFor(row, m.key)
}

// Insert implements Maintainer.
func (m *CongressDeltaMaintainer) Insert(row engine.Row) {
	var buf [64]byte
	m.InsertKeyed(row, m.g.AppendKey(buf[:0], row))
}

// InsertKeyed implements Maintainer, mirroring the Basic Congress cases
// with per-group Congress targets.
func (m *CongressDeltaMaintainer) InsertKeyed(row engine.Row, key []byte) {
	slot := m.slotFor(row, key)
	m.cube.AddSlot(slot, 1)
	m.seen++
	target := m.target(slot)

	evicted, hadEviction, accepted := m.res.Offer(row)
	switch {
	case !accepted:
		// Small-group direct add: while the group holds fewer tuples
		// than its target, every one of them stays reachable.
		if float64(m.cube.SlotCount(m.cube.FinestMask(), slot)) <= target {
			m.delta[slot] = append(m.delta[slot], row)
		}
	case !hadEviction:
		m.x[slot]++
	default:
		ev := m.slotOf(evicted)
		if ev == slot {
			break
		}
		m.x[slot]++
		if len(m.delta[slot]) > 0 {
			m.evictDelta(slot)
		}
		m.x[ev]--
		if float64(m.x[ev]) < m.target(ev) {
			m.delta[ev] = append(m.delta[ev], evicted)
		}
	}
	m.trimDelta(slot, target)
}

func (m *CongressDeltaMaintainer) evictDelta(slot int) {
	d := m.delta[slot]
	i := m.rng.Intn(len(d))
	last := len(d) - 1
	d[i] = d[last]
	m.delta[slot] = d[:last]
}

func (m *CongressDeltaMaintainer) trimDelta(slot int, target float64) {
	limit := int(target+0.9999) - m.x[slot]
	if limit < 0 {
		limit = 0
	}
	for len(m.delta[slot]) > limit {
		m.evictDelta(slot)
	}
}

// Compact trims every delta sample to its current target.
func (m *CongressDeltaMaintainer) Compact() {
	for slot, d := range m.delta {
		if len(d) > 0 {
			m.trimDelta(slot, m.target(slot))
		}
	}
}

// SampledCount implements Maintainer.
func (m *CongressDeltaMaintainer) SampledCount() int {
	n := m.res.Len()
	for _, d := range m.delta {
		n += len(d)
	}
	return n
}

// SeenCount implements Maintainer.
func (m *CongressDeltaMaintainer) SeenCount() int64 { return m.seen }

// Cube exposes the incrementally maintained group-count cube.
func (m *CongressDeltaMaintainer) Cube() *datacube.Cube { return m.cube }

// Snapshot implements Maintainer.
func (m *CongressDeltaMaintainer) Snapshot() (*sample.Stratified[engine.Row], error) {
	m.Compact()
	st := sample.NewStratified[engine.Row]()
	m.cube.FinestGroups(func(key string, pop int64) {
		st.Put(&sample.Stratum[engine.Row]{Key: key, Population: pop})
	})
	for _, row := range m.res.Items() {
		if s, ok := st.Get(m.cube.SlotKey(m.slotOf(row))); ok {
			s.Items = append(s.Items, row)
		}
	}
	for slot, d := range m.delta {
		if s, ok := st.Get(m.cube.SlotKey(slot)); ok && len(d) > 0 {
			s.Items = append(s.Items, d...)
		}
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
