package aqua

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// salesSchema is the schema of the small tables these tests build.
func salesSchema() *engine.Schema {
	return engine.MustSchema(
		engine.Column{Name: "region", Kind: engine.KindString},
		engine.Column{Name: "product", Kind: engine.KindString},
		engine.Column{Name: "amount", Kind: engine.KindFloat},
		engine.Column{Name: "qty", Kind: engine.KindInt},
	)
}

func salesRow(region, product string, amount float64, qty int64) engine.Row {
	return engine.Row{engine.NewString(region), engine.NewString(product), engine.NewFloat(amount), engine.NewInt(qty)}
}

// salesCatalog returns a catalog holding a "sales" table of n skewed
// rows over four regions (the squares mod 7) and three products.
func salesCatalog(t testing.TB, n int) *engine.Catalog {
	t.Helper()
	rel := engine.NewRelation("sales", salesSchema())
	for i := 0; i < n; i++ {
		r := (i * i) % 7
		if err := rel.Insert(salesRow(fmt.Sprintf("r%d", r), fmt.Sprintf("p%d", i%3), float64(i%13)+0.25, int64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	cat := engine.NewCatalog()
	cat.Register(rel)
	return cat
}

// strategyConfigs is one synopsis config per maintainer kind.
func strategyConfigs(space int) []Config {
	base := Config{Table: "sales", GroupCols: []string{"region", "product"}, Space: space, Seed: 7}
	var out []Config
	for _, c := range []struct {
		s     core.Strategy
		delta bool
	}{{core.House, false}, {core.Senate, false}, {core.BasicCongress, false}, {core.Congress, false}, {core.Congress, true}} {
		cfg := base
		cfg.Strategy, cfg.DeltaMaintenance = c.s, c.delta
		out = append(out, cfg)
	}
	return out
}

// TestAllocationTableLabelsUnsampledGroups: a group the sample holds no
// tuple of still gets its rendered label.
func TestAllocationTableLabelsUnsampledGroups(t *testing.T) {
	rel := engine.NewRelation("t", engine.MustSchema(engine.Column{Name: "g", Kind: engine.KindString}))
	for i := 0; i < 200; i++ {
		rel.Insert(engine.Row{engine.NewString("big")})
	}
	rel.Insert(engine.Row{engine.NewString("tiny")})
	cat := engine.NewCatalog()
	cat.Register(rel)
	s, err := New(cat).CreateSynopsis(Config{Table: "t", GroupCols: []string{"g"}, Strategy: core.House, Space: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sawTiny bool
	for _, r := range s.AllocationTable() {
		if len(r.Group) != 1 {
			t.Errorf("allocation row %+v has no group label", r)
			continue
		}
		if r.Group[0] == "tiny" {
			sawTiny = true
			if r.Population != 1 || r.Actual != 0 {
				t.Errorf("tiny row %+v, want population 1 and nothing sampled", r)
			}
		}
	}
	if !sawTiny {
		t.Error("no allocation row labelled tiny")
	}
}

// TestSynopsisCubeMatchesTable: for every maintainer kind, the
// maintainer's cube is the synopsis's one cube — after creation and
// live inserts its total is the table's row count and its per-group
// sums are the exact SUM, and the hybrid path answers from it.
func TestSynopsisCubeMatchesTable(t *testing.T) {
	for _, cfg := range strategyConfigs(40) {
		t.Run(fmt.Sprintf("%v/delta=%v", cfg.Strategy, cfg.DeltaMaintenance), func(t *testing.T) {
			cat := salesCatalog(t, 500)
			a := New(cat)
			s, err := a.CreateSynopsis(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := cat.Lookup("sales")
			for i := 0; i < 50; i++ {
				row := salesRow("new", "p0", float64(i), 1)
				if err := rel.Insert(row); err != nil {
					t.Fatal(err)
				}
				s.Insert(row)
			}
			cube := s.Maintainer().Cube()
			if got, want := cube.Total(), int64(len(rel.Rows())); got != want {
				t.Fatalf("cube total %d, table has %d rows", got, want)
			}
			if got := s.Maintainer().SeenCount(); got != cube.Total() {
				t.Errorf("maintainer saw %d tuples, cube counts %d", got, cube.Total())
			}
			want := map[string]float64{}
			for _, row := range rel.Rows() {
				want[row[0].GroupKey()] += row[2].F
			}
			got := map[string]float64{}
			cube.MeasureGroupsUnder(0b01, "amount", func(key string, _ int64, sum float64, _ int64) { got[key] = sum })
			if len(got) != len(want) {
				t.Fatalf("cube has %d regions, table %d", len(got), len(want))
			}
			for k, w := range want {
				if got[k] != w {
					t.Errorf("region %q: cube sum %v, exact SUM %v", k, got[k], w)
				}
			}
			parts, ok := s.ExactPartials([]int{0}, 2)
			if !ok || len(parts) != len(want) {
				t.Fatalf("hybrid answered %v with %d groups, want %d", ok, len(parts), len(want))
			}
			for _, p := range parts {
				key := engine.NewString(p.Key).GroupKey()
				if p.ExactSum != want[key] {
					t.Errorf("hybrid %q sum %v, exact SUM %v", p.Key, p.ExactSum, want[key])
				}
			}
		})
	}
}

// Mirrors of the state types as snapshots held them before the
// maintainer's cube carried the hybrid measures: the maintainer carried
// Seen and, for house, senate and basic congress, Pops instead of a
// cube; the synopsis carried the measures in a separate ExactCube. gob
// matches fields by name, so these encode the bytes an older snapshot
// holds.
type legacyMaintainerState struct {
	Kind           string
	Attrs          []string
	Reservoir      *sample.ReservoirState[engine.Row]
	Groups         map[string]*sample.ReservoirState[engine.Row]
	Pops           map[string]int64
	Seen           int64
	Budget         int
	X              map[string]int
	Delta          map[string][]engine.Row
	Cube           *datacube.CubeState
	Items          []core.CongItemState
	RebalanceEvery int64
}

type legacySynopsisState struct {
	Config     Config
	Alloc      *core.Allocation
	ID         uint64
	Epoch      uint64
	Pending    int64
	Strata     []*sample.Stratum[engine.Row]
	Maintainer *legacyMaintainerState
	ExactCube  *datacube.CubeState
}

// toLegacyFormat rewrites a current state in the legacy format.
func toLegacyFormat(st *SynopsisState) *legacySynopsisState {
	m := st.Maintainer
	exact := *m.Cube
	counts := *m.Cube
	counts.Groups = append([]datacube.GroupCount(nil), m.Cube.Groups...)
	counts.DropMeasures()
	old := &legacyMaintainerState{
		Kind: m.Kind, Attrs: m.Attrs, Reservoir: m.Reservoir, Groups: m.Groups,
		Budget: m.Budget, X: m.X, Delta: m.Delta, Items: m.Items, RebalanceEvery: m.RebalanceEvery,
	}
	for _, gc := range m.Cube.Groups {
		old.Seen += gc.Count
	}
	switch m.Kind {
	case core.KindHouse, core.KindSenate, core.KindBasicCongress:
		old.Pops = make(map[string]int64)
		for _, gc := range m.Cube.Groups {
			old.Pops[gc.ID.Key()] = gc.Count
		}
	default:
		old.Cube = &counts
	}
	return &legacySynopsisState{
		Config: st.Config, Alloc: st.Alloc, ID: st.ID, Epoch: st.Epoch, Pending: st.Pending,
		Strata: st.Strata, Maintainer: old, ExactCube: &exact,
	}
}

// TestRestoreLegacySynopsis: a snapshot in the legacy format —
// populations in Pops or a count-only cube, measures in a separate
// ExactCube — restores with the same sample and populations, and with
// hybrid answering off until the synopsis is rebuilt.
func TestRestoreLegacySynopsis(t *testing.T) {
	for _, cfg := range strategyConfigs(40) {
		t.Run(fmt.Sprintf("%v/delta=%v", cfg.Strategy, cfg.DeltaMaintenance), func(t *testing.T) {
			live, err := New(salesCatalog(t, 500)).CreateSynopsis(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := live.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(toLegacyFormat(st)); err != nil {
				t.Fatal(err)
			}
			var decoded SynopsisState
			if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
				t.Fatal(err)
			}
			cat := salesCatalog(t, 500)
			a := New(cat)
			s, err := a.RestoreSynopsis(&decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s.Sample(), live.Sample()) {
				t.Error("restored sample differs from the exported one")
			}
			if got := s.Maintainer().SeenCount(); got != 500 {
				t.Errorf("restored maintainer saw %d tuples, want 500", got)
			}
			if _, ok := s.ExactPartials([]int{0}, 2); ok {
				t.Error("hybrid answered from a legacy snapshot")
			}
			rel, _ := cat.Lookup("sales")
			row := salesRow("r1", "p1", 2, 1)
			if err := rel.Insert(row); err != nil {
				t.Fatal(err)
			}
			s.Insert(row)
			if _, ok := s.ExactPartials([]int{0}, 2); ok {
				t.Error("an insert re-enabled hybrid with no restored measures")
			}
			if err := a.Refresh("sales"); err != nil {
				t.Fatal(err)
			}
			if got := s.Sample().Population(); got != 501 {
				t.Errorf("refreshed population %d, want 501", got)
			}
			rebuilt, err := a.CreateSynopsis(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := rebuilt.ExactPartials([]int{0}, 2); !ok {
				t.Error("rebuild did not re-enable hybrid")
			}
		})
	}
}

// TestConcurrentHybridReads reads the hybrid path and the allocation
// table from several goroutines while inserts create new slots, so
// readers race to render the new slots' labels. Run with -race.
func TestConcurrentHybridReads(t *testing.T) {
	cat := salesCatalog(t, 300)
	s, err := New(cat).CreateSynopsis(strategyConfigs(40)[3])
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := cat.Lookup("sales")
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.ExactPartials([]int{1, 0}, 2)
				s.AllocationTable()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		row := salesRow(fmt.Sprintf("n%d", i), "p9", 1, 1)
		if err := rel.Insert(row); err != nil {
			t.Error(err)
		}
		s.Insert(row)
	}
	wg.Wait()
	regions := map[string]bool{}
	for _, row := range rel.Rows() {
		regions[row[0].S] = true
	}
	parts, ok := s.ExactPartials([]int{0}, 2)
	if !ok || len(parts) != len(regions) {
		t.Fatalf("hybrid answered %v with %d regions, want %d", ok, len(parts), len(regions))
	}
}
