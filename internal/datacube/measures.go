package datacube

import "fmt"

// Measure support: beyond tuple counts, a cube can carry exact SUM and
// non-null COUNT for a set of measure columns. They are stored only per
// finest slot and rolled up into a grouping's coarse groups on read, so
// an insert touches one accumulator per measure however many groupings
// the cube has. This is the precomputed exact-aggregate side of the
// hybrid estimator (AQP++-style): a query whose group-by set is covered
// by G and whose aggregate column is a tracked measure can be answered
// exactly from the cube, with the congressional sample reserved for the
// residual.
//
// A measure value may be null (the source row's column was NULL or not
// numeric); nulls contribute to the tuple count but not to the measure's
// sum or non-null count, matching SQL SUM/COUNT(col) semantics.

// MeasureValue carries one measure column's contribution for a tuple.
// OK=false means NULL: no sum or non-null-count contribution.
type MeasureValue struct {
	V  float64
	OK bool
}

// NewWithMeasures creates a cube over the named grouping attributes that
// additionally tracks exact SUM and non-null COUNT for each measure
// column. Measure names must be non-empty and distinct.
func NewWithMeasures(attrs, measures []string) (*Cube, error) {
	c, err := New(attrs)
	if err != nil {
		return nil, err
	}
	if len(measures) == 0 {
		return c, nil
	}
	c.measures = append([]string(nil), measures...)
	c.mIndex = make(map[string]int, len(measures))
	for i, m := range measures {
		if m == "" {
			return nil, fmt.Errorf("datacube: empty measure name at index %d", i)
		}
		if _, dup := c.mIndex[m]; dup {
			return nil, fmt.Errorf("datacube: duplicate measure %q", m)
		}
		c.mIndex[m] = i
	}
	c.sums = make([][]float64, len(measures))
	c.nonNull = make([][]int64, len(measures))
	return c, nil
}

// Measures returns the tracked measure column names (nil if none).
func (c *Cube) Measures() []string { return c.measures }

// HasMeasure reports whether the named column is a tracked measure.
func (c *Cube) HasMeasure(col string) bool {
	_, ok := c.mIndex[col]
	return ok
}

// AddMeasured records one tuple with its measure values, updating
// every grouping's counter and the finest group's measure accumulators.
// vals must align with the cube's measure list (Measures()); on a cube
// without measures it degrades to Add.
func (c *Cube) AddMeasured(id GroupID, vals []MeasureValue) error {
	if len(vals) != len(c.measures) {
		return fmt.Errorf("datacube: %d measure values, cube tracks %d measures", len(vals), len(c.measures))
	}
	s, err := c.intern(id)
	if err != nil {
		return err
	}
	return c.AddMeasuredSlot(s, vals)
}

// AddMeasuredSlot is AddMeasured for an interned slot (see Intern).
func (c *Cube) AddMeasuredSlot(slot int, vals []MeasureValue) error {
	if len(vals) != len(c.measures) {
		return fmt.Errorf("datacube: %d measure values, cube tracks %d measures", len(vals), len(c.measures))
	}
	c.AddSlot(slot, 1)
	for mi, mv := range vals {
		if mv.OK {
			c.sums[mi][slot] += mv.V
			c.nonNull[mi][slot]++
		}
	}
	return nil
}

// AddMeasuredN records n tuples of the given finest group along with the
// group's aggregate measure contributions (total sum, total non-null
// count per measure). Restore uses it to rebuild a cube from
// finest-group state. n == 0 records nothing.
func (c *Cube) AddMeasuredN(id GroupID, n int64, sums []float64, nonNull []int64) error {
	var buf [128]byte
	return c.addMeasuredN(id.appendKey(buf[:0]), id, n, sums, nonNull)
}

// addMeasuredN is AddMeasuredN for a slot interned under key.
func (c *Cube) addMeasuredN(key []byte, id GroupID, n int64, sums []float64, nonNull []int64) error {
	if len(sums) != len(c.measures) || len(nonNull) != len(c.measures) {
		return fmt.Errorf("datacube: measure batch has %d/%d entries, cube tracks %d measures",
			len(sums), len(nonNull), len(c.measures))
	}
	// Validate before touching any counter: a rejected batch must leave
	// the cube exactly as it was.
	if len(id) != len(c.attrs) {
		return fmt.Errorf("datacube: group id has %d parts, cube has %d attributes", len(id), len(c.attrs))
	}
	if n < 0 {
		return fmt.Errorf("datacube: negative group count %d", n)
	}
	for mi := range c.measures {
		if nonNull[mi] < 0 {
			return fmt.Errorf("datacube: negative non-null count %d for measure %q", nonNull[mi], c.measures[mi])
		}
	}
	if n == 0 {
		return nil
	}
	s, err := c.Intern(key, id)
	if err != nil {
		return err
	}
	c.AddSlot(s, n)
	for mi := range c.measures {
		c.sums[mi][s] += sums[mi]
		c.nonNull[mi][s] += nonNull[mi]
	}
	return nil
}

// MeasureSum returns the exact SUM of the measure column over the group
// identified by key under grouping mask. ok=false if the column is not a
// tracked measure.
func (c *Cube) MeasureSum(mask uint32, key, col string) (float64, bool) {
	sum, _, ok := c.measureOf(mask, key, col)
	return sum, ok
}

// MeasureNonNull returns the exact non-null COUNT of the measure column
// over the group identified by key under grouping mask.
func (c *Cube) MeasureNonNull(mask uint32, key, col string) (int64, bool) {
	_, nn, ok := c.measureOf(mask, key, col)
	return nn, ok
}

// measureOf rolls one group's measure up from its finest slots.
func (c *Cube) measureOf(mask uint32, key, col string) (float64, int64, bool) {
	mi, ok := c.mIndex[col]
	if !ok {
		return 0, 0, false
	}
	ci, ok := c.groups[mask].index[key]
	if !ok {
		return 0, 0, true
	}
	var sum float64
	var nn int64
	for _, s := range c.rollupOrder() {
		if c.coarse[int(s)*c.nm+int(mask)] == ci {
			sum += c.sums[mi][s]
			nn += c.nonNull[mi][s]
		}
	}
	return sum, nn, true
}

// MeasureGroupsUnder calls fn for each non-empty group under grouping
// mask with the group's tuple count and the named measure's exact sum
// and non-null count. Returns false (without iterating) if the column is
// not a tracked measure. Iteration order is unspecified.
func (c *Cube) MeasureGroupsUnder(mask uint32, col string, fn func(key string, count int64, sum float64, nonNull int64)) bool {
	return c.MeasureIDsUnder(mask, col, func(_ GroupID, key string, count int64, sum float64, nonNull int64) {
		fn(key, count, sum, nonNull)
	})
}

// MeasureIDsUnder is MeasureGroupsUnder that also passes the parts of
// one finest slot in each group. The parts at the mask's attributes are
// the group's own; the others belong to that one slot. The slice is
// shared; do not modify.
func (c *Cube) MeasureIDsUnder(mask uint32, col string, fn func(id GroupID, key string, count int64, sum float64, nonNull int64)) bool {
	mi, ok := c.mIndex[col]
	if !ok {
		return false
	}
	g := &c.groups[mask]
	sums := make([]float64, len(g.keys))
	nn := make([]int64, len(g.keys))
	for _, s := range c.rollupOrder() {
		ci := c.coarse[int(s)*c.nm+int(mask)]
		sums[ci] += c.sums[mi][s]
		nn[ci] += c.nonNull[mi][s]
	}
	for ci, n := range g.counts {
		if n > 0 {
			fn(c.ids[g.rep[ci]], g.keys[ci], n, sums[ci], nn[ci])
		}
	}
	return true
}

// sameMeasures reports whether two cubes track the same measure list in
// the same order.
func sameMeasures(a, b *Cube) bool {
	if len(a.measures) != len(b.measures) {
		return false
	}
	for i, m := range a.measures {
		if b.measures[i] != m {
			return false
		}
	}
	return true
}
