package datacube

import "fmt"

// GroupCount is one finest slot's state: its GroupID, finest key,
// tuple count and, for cubes tracking measures, the slot's exact
// per-measure SUM and non-null COUNT (aligned with CubeState.Measures).
// Key is empty in states written before slots existed, and then defaults
// to ID.Key(); Sums and NonNull are nil on count-only cubes and in
// states written before measures existed. gob decodes old encodings
// with the new fields left zero.
type GroupCount struct {
	ID      GroupID
	Count   int64
	Sums    []float64
	NonNull []int64
	Key     string
}

// CubeState is the serializable state of a Cube. Only the finest slots
// are stored: every coarser grouping's count is the exact sum of the
// finest counts it covers, so Restore rebuilds the full cube from the
// slots alone. This keeps snapshots O(groups) instead of
// O(2^|G| · groups). Measures are stored per slot in the cube itself,
// so a restored cube rolls up exactly what the live one does.
type CubeState struct {
	Attrs    []string
	Groups   []GroupCount
	Measures []string
}

// State exports the cube's serializable state. Groups are sorted by
// finest key so the encoding is deterministic.
func (c *Cube) State() *CubeState {
	st := &CubeState{
		Attrs:    append([]string(nil), c.attrs...),
		Measures: append([]string(nil), c.measures...),
	}
	for _, s := range c.rollupOrder() {
		if c.n[s] == 0 {
			continue
		}
		gc := GroupCount{
			ID:    append(GroupID(nil), c.ids[s]...),
			Count: c.n[s],
			Key:   c.keys[s],
		}
		if len(c.measures) > 0 {
			gc.Sums = make([]float64, len(c.measures))
			gc.NonNull = make([]int64, len(c.measures))
			for mi := range c.measures {
				gc.Sums[mi] = c.sums[mi][s]
				gc.NonNull[mi] = c.nonNull[mi][s]
			}
		}
		st.Groups = append(st.Groups, gc)
	}
	return st
}

// RestoreCube rebuilds a cube from exported state.
func RestoreCube(st *CubeState) (*Cube, error) {
	if st == nil {
		return nil, fmt.Errorf("datacube: nil cube state")
	}
	c, err := NewWithMeasures(st.Attrs, st.Measures)
	if err != nil {
		return nil, err
	}
	for _, g := range st.Groups {
		key := g.Key
		if key == "" {
			key = g.ID.Key()
		}
		sums, nonNull := g.Sums, g.NonNull
		if sums == nil {
			sums = make([]float64, len(st.Measures))
		}
		if nonNull == nil {
			nonNull = make([]int64, len(st.Measures))
		}
		if err := c.addMeasuredN([]byte(key), g.ID, g.Count, sums, nonNull); err != nil {
			return nil, err
		}
	}
	return c, nil
}
