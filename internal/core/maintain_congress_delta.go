package core

import (
	"math/rand"

	"github.com/approxdb/congress/internal/datacube"
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
// instead of Basic Congress's Y/m. The group cube supplies m_T and
// n_{g,T}; the per-insert bookkeeping is O(2^|G|), the cost the paper
// concedes for Congress maintenance.
type CongressDeltaMaintainer struct{ deltaSampler }

// NewCongressDeltaMaintainer creates a maintainer with pre-scaling space
// parameter y that counts into cube (nil: a count-only cube of its own).
func NewCongressDeltaMaintainer(g *Grouping, cube *datacube.Cube, y int, rng *rand.Rand) (*CongressDeltaMaintainer, error) {
	d, err := newDeltaSampler(KindCongressDelta, g, cube, y, rng)
	if err != nil {
		return nil, err
	}
	return &CongressDeltaMaintainer{d}, nil
}

// congressTarget computes the Congress pre-scaling requirement for the
// finest group of the given cube slot.
func (m *deltaSampler) congressTarget(slot int) float64 {
	Y := float64(m.y)
	ng := float64(m.pop(slot))
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
