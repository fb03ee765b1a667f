package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// Grouping binds a relation schema to its grouping attributes G,
// providing GroupID extraction for rows.
type Grouping struct {
	Attrs []string // grouping attribute names, in mask-bit order
	cols  []int    // column ordinals in the schema
}

// NewGrouping resolves the grouping attribute names against the schema.
func NewGrouping(schema *engine.Schema, attrs []string) (*Grouping, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: grouping needs at least one attribute")
	}
	g := &Grouping{Attrs: append([]string(nil), attrs...), cols: make([]int, len(attrs))}
	for i, a := range attrs {
		idx := schema.Index(a)
		if idx < 0 {
			return nil, fmt.Errorf("core: grouping attribute %q not in schema of columns %v", a, schema.Names())
		}
		g.cols[i] = idx
	}
	return g, nil
}

// MustGrouping is NewGrouping but panics on error.
func MustGrouping(schema *engine.Schema, attrs []string) *Grouping {
	g, err := NewGrouping(schema, attrs)
	if err != nil {
		panic(err)
	}
	return g
}

// Columns returns the schema ordinals of the grouping attributes, in
// attribute (mask-bit) order.
func (g *Grouping) Columns() []int {
	return append([]int(nil), g.cols...)
}

// ID extracts the finest GroupID of a row.
func (g *Grouping) ID(row engine.Row) datacube.GroupID {
	id := make(datacube.GroupID, len(g.cols))
	for i, c := range g.cols {
		id[i] = row[c].GroupKey()
	}
	return id
}

// AppendKey appends the row's finest composite group key to dst: each
// grouping value's engine.Value.AppendGroupKey encoding, joined by
// datacube.KeySep. The bytes equal ID(row).Key(); shard routing hashes
// them, so they must never change. With a reused buffer the key costs
// no allocation.
func (g *Grouping) AppendKey(dst []byte, row engine.Row) []byte {
	for i, c := range g.cols {
		if i > 0 {
			dst = append(dst, datacube.KeySep...)
		}
		dst = row[c].AppendGroupKey(dst)
	}
	return dst
}

// Key extracts the finest composite group key of a row without
// allocating the intermediate GroupID.
func (g *Grouping) Key(row engine.Row) string {
	var buf [64]byte
	return string(g.AppendKey(buf[:0], row))
}

// slot returns the cube slot of the row's finest group, whose key the
// caller computed with AppendKey, interning it on first sight. Only a
// new group builds its GroupID.
func (g *Grouping) slot(cube *datacube.Cube, row engine.Row, key []byte) int {
	if s, ok := cube.Lookup(key); ok {
		return s
	}
	s, err := cube.Intern(key, g.ID(row))
	if err != nil {
		// Arity is fixed by the grouping; this cannot happen.
		panic(err)
	}
	return s
}

// BuildCube scans the relation once and returns the full data cube of
// group counts (the precomputation assumed by the "constructing using a
// data cube" paragraph of Section 6).
func BuildCube(rel *engine.Relation, g *Grouping) (*datacube.Cube, error) {
	cube, err := datacube.New(g.Attrs)
	if err != nil {
		return nil, err
	}
	var key []byte
	for _, row := range rel.Rows() {
		key = g.AppendKey(key[:0], row)
		cube.AddSlot(g.slot(cube, row, key), 1)
	}
	return cube, nil
}

// Build constructs a stratified biased sample of the relation under the
// given strategy and budget: one pass to build the cube, one pass of
// independent per-group reservoir sampling at the allocated sizes. The
// returned Stratified holds each finest group's sampled tuples and
// population, from which scale factors follow.
func Build(rel *engine.Relation, g *Grouping, strategy Strategy, x int, rng *rand.Rand) (*sample.Stratified[engine.Row], *Allocation, error) {
	cube, err := BuildCube(rel, g)
	if err != nil {
		return nil, nil, err
	}
	return BuildWithCube(rel, g, cube, strategy, x, rng)
}

// BuildWithCube is Build for callers that already maintain the cube.
func BuildWithCube(rel *engine.Relation, g *Grouping, cube *datacube.Cube, strategy Strategy, x int, rng *rand.Rand) (*sample.Stratified[engine.Row], *Allocation, error) {
	return BuildWithVectors(rel, g, cube, strategy, x, rng)
}

// BuildWithVectors is BuildWithCube with additional Section 8 weight
// vectors folded into the allocation (e.g. a NeymanVector for
// variance-aware sampling).
func BuildWithVectors(rel *engine.Relation, g *Grouping, cube *datacube.Cube, strategy Strategy, x int, rng *rand.Rand, extra ...WeightVector) (*sample.Stratified[engine.Row], *Allocation, error) {
	alloc, err := AllocateWithVectors(strategy, cube, x, extra...)
	if err != nil {
		return nil, nil, err
	}
	st, err := Materialize(rel, g, cube, alloc, rng)
	if err != nil {
		return nil, nil, err
	}
	return st, alloc, nil
}

// GroupStdDevs scans the relation once and returns each finest group's
// sample standard deviation of the named numeric column — the input to
// the Section 8 variance criterion (NeymanVector). Non-numeric and NULL
// values are skipped; single-tuple groups report zero.
func GroupStdDevs(rel *engine.Relation, g *Grouping, column string) (map[string]float64, error) {
	ci := rel.Schema.Index(column)
	if ci < 0 {
		return nil, fmt.Errorf("core: unknown column %q", column)
	}
	type acc struct {
		n        int64
		mean, m2 float64
	}
	accs := make(map[string]*acc)
	for _, row := range rel.Rows() {
		v, ok := row[ci].AsFloat()
		if !ok {
			continue
		}
		key := g.Key(row)
		a := accs[key]
		if a == nil {
			a = &acc{}
			accs[key] = a
		}
		a.n++
		d := v - a.mean
		a.mean += d / float64(a.n)
		a.m2 += d * (v - a.mean)
	}
	out := make(map[string]float64, len(accs))
	for key, a := range accs {
		if a.n < 2 {
			out[key] = 0
			continue
		}
		out[key] = math.Sqrt(a.m2 / float64(a.n-1))
	}
	return out, nil
}

// Materialize draws the sample prescribed by an allocation: a uniform
// random sample of the allocated size within each finest group, taken in
// a single pass with one reservoir per group.
func Materialize(rel *engine.Relation, g *Grouping, cube *datacube.Cube, alloc *Allocation, rng *rand.Rand) (*sample.Stratified[engine.Row], error) {
	populations := make(map[string]int64)
	cube.FinestGroups(func(key string, n int64) { populations[key] = n })
	targets := alloc.IntegerTargets(populations)

	reservoirs := make(map[string]*sample.Reservoir[engine.Row], len(targets))
	for key, size := range targets {
		if size <= 0 {
			continue
		}
		r, err := sample.NewReservoir[engine.Row](size, rng)
		if err != nil {
			return nil, err
		}
		reservoirs[key] = r
	}

	var key []byte
	for _, row := range rel.Rows() {
		key = g.AppendKey(key[:0], row)
		if r, ok := reservoirs[string(key)]; ok {
			r.Offer(row)
		}
	}

	st := sample.NewStratified[engine.Row]()
	for key, pop := range populations {
		stratum := &sample.Stratum[engine.Row]{Key: key, Population: pop}
		if r, ok := reservoirs[key]; ok {
			stratum.Items = append([]engine.Row(nil), r.Items()...)
		}
		st.Put(stratum)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}
