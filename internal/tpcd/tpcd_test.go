package tpcd

import (
	"math"
	"reflect"
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
)

func TestPerColumnValues(t *testing.T) {
	cases := map[int]int{1: 1, 8: 2, 27: 3, 1000: 10, 10: 2, 100: 5, 200000: 58}
	for ng, want := range cases {
		if got := PerColumnValues(ng); got != want {
			t.Errorf("PerColumnValues(%d) = %d, want %d", ng, got, want)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	rel, err := Generate(Params{TableSize: 10000, NumGroups: 27, GroupSkew: 1.0, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 10000 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	if rel.Schema.Len() != 6 {
		t.Fatalf("schema %v", rel.Schema.Names())
	}

	// Every group must be non-empty and group count must equal 27.
	g := core.MustGrouping(rel.Schema, GroupingAttrs)
	cube, err := core.BuildCube(rel, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := cube.NumGroups(cube.FinestMask()); got != 27 {
		t.Fatalf("finest groups %d, want 27", got)
	}
	// Per-column distinct counts are 3 each.
	for mask, want := range map[uint32]int{0b001: 3, 0b010: 3, 0b100: 3} {
		if got := cube.NumGroups(mask); got != want {
			t.Errorf("mask %b groups %d, want %d", mask, got, want)
		}
	}
}

func TestGenerateIDsSequentialAndShuffled(t *testing.T) {
	rel := MustGenerate(Params{TableSize: 5000, NumGroups: 8, GroupSkew: 1.5, Seed: 7})
	rows := rel.Rows()
	seen := make([]bool, len(rows)+1)
	for i, row := range rows {
		id := row[0].I
		if id < 1 || id > int64(len(rows)) || seen[id] {
			t.Fatalf("bad l_id %d at row %d", id, i)
		}
		seen[id] = true
	}
	// Shuffle check: consecutive ids should not all share a group.
	g := core.MustGrouping(rel.Schema, GroupingAttrs)
	sameGroupRuns := 0
	for i := 1; i < 1000; i++ {
		if g.Key(rows[i]) == g.Key(rows[i-1]) {
			sameGroupRuns++
		}
	}
	if sameGroupRuns > 900 {
		t.Errorf("rows appear sorted by group (%d/999 adjacent same-group)", sameGroupRuns)
	}
}

func TestGenerateSkewControlsGroupSizes(t *testing.T) {
	sizes := func(z float64) (min, max int64) {
		rel := MustGenerate(Params{TableSize: 50000, NumGroups: 64, GroupSkew: z, Seed: 3})
		g := core.MustGrouping(rel.Schema, GroupingAttrs)
		cube, _ := core.BuildCube(rel, g)
		min, max = int64(1<<62), int64(0)
		cube.FinestGroups(func(_ string, n int64) {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		})
		return
	}
	uMin, uMax := sizes(0.0001) // effectively uniform (z=0 is remapped by withDefaults)
	if float64(uMax)/float64(uMin) > 1.5 {
		t.Errorf("near-uniform skew produced ratio %d/%d", uMax, uMin)
	}
	sMin, sMax := sizes(1.5)
	if float64(sMax)/float64(sMin) < 50 {
		t.Errorf("z=1.5 produced weak skew ratio %d/%d", sMax, sMin)
	}
	if sMin < 1 {
		t.Error("skewed generation left an empty group")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Params{TableSize: 2000, NumGroups: 8, Seed: 11})
	b := MustGenerate(Params{TableSize: 2000, NumGroups: 8, Seed: 11})
	ra, rb := a.Rows(), b.Rows()
	for i := range ra {
		for j := range ra[i] {
			if !ra[i][j].Equal(rb[i][j]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, ra[i][j], rb[i][j])
			}
		}
	}
}

func TestGenerateAggSkew(t *testing.T) {
	rel := MustGenerate(Params{TableSize: 20000, NumGroups: 8, AggSkew: 0.86, Seed: 5})
	// The most common quantity value should dominate under z=0.86.
	counts := map[float64]int{}
	for _, row := range rel.Rows() {
		counts[row[4].F]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if frac := float64(maxCount) / 20000; frac < 0.05 {
		t.Errorf("top aggregate value holds %.3f of rows; expected Zipf concentration", frac)
	}
	// Values must be positive.
	for _, row := range rel.Rows()[:100] {
		if row[4].F <= 0 || row[5].F <= 0 {
			t.Fatalf("non-positive aggregate value %v/%v", row[4], row[5])
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Params{TableSize: 10, NumGroups: 1000}); err == nil {
		t.Error("table smaller than group count accepted")
	}
	if _, err := Generate(Params{TableSize: -5}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestGenerateDatesInWindow(t *testing.T) {
	rel := MustGenerate(Params{TableSize: 1000, NumGroups: 27, Seed: 9})
	lo := engine.MustParseDate("1992-01-01")
	hi := engine.MustParseDate("1998-12-31")
	for _, row := range rel.Rows() {
		d := row[3]
		if d.K != engine.KindDate || d.Compare(lo) < 0 || d.Compare(hi) > 0 {
			t.Fatalf("date %v outside TPC-D window", d)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := Params{}.withDefaults()
	if p.TableSize != 1_000_000 || p.NumGroups != 1000 || math.Abs(p.GroupSkew-0.86) > 1e-12 {
		t.Errorf("defaults %+v", p)
	}
}

// TestLineitemQueriesVectorize pins that the two lineitem queries the
// columnar speedup is quoted on (scan-filter-aggregate and
// scan-filter-project, as in BenchmarkVectorized*) run on the
// columnar path and return exactly the row engine's answer. A planner
// change that makes either decline would otherwise only show up as a
// lost speedup.
func TestLineitemQueriesVectorize(t *testing.T) {
	rel, err := Generate(Params{TableSize: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	cat.Register(rel)
	prev := engine.SetVectorized(true)
	defer engine.SetVectorized(prev)
	for _, q := range []struct{ name, sql string }{
		{
			"scan_filter_aggregate",
			"select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), " +
				"avg(l_extendedprice), count(*) from lineitem " +
				"where l_shipdate >= '1994-01-01' and l_quantity < 500 " +
				"group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus",
		},
		{
			"scan_filter_project",
			"select l_id, l_quantity, l_extendedprice from lineitem " +
				"where l_extendedprice > 1400.0 and l_quantity between 100 and 900 " +
				"order by l_id limit 100",
		},
	} {
		engine.SetVectorized(true)
		v0, _ := engine.ExecCounts()
		got, err := engine.ExecuteSQL(cat, q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if v1, _ := engine.ExecCounts(); v1 == v0 {
			t.Errorf("%s fell back to the row engine", q.name)
		}
		engine.SetVectorized(false)
		want, err := engine.ExecuteSQL(cat, q.sql)
		if err != nil {
			t.Fatalf("%s (row engine): %v", q.name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s selects no rows; the check would be vacuous", q.name)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: vectorized %v × %d rows, row engine %v × %d rows",
				q.name, got.Columns, len(got.Rows), want.Columns, len(want.Rows))
		}
		for r := range want.Rows {
			for c, w := range want.Rows[r] {
				g := got.Rows[r][c]
				if g.K != w.K || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("%s row %d col %d: vectorized %#v, row engine %#v", q.name, r, c, g, w)
				}
			}
		}
	}
}
