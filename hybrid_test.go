package congress

import (
	"context"
	"testing"

	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/tpcd"
)

// hybridTruth computes the exact per-region SUM/COUNT/AVG of amount via
// the SQL engine (group key = rendered region value).
func hybridTruth(t *testing.T, w *Warehouse) map[string][3]float64 {
	t.Helper()
	res, err := w.Query(`select region, sum(amount), count(*), avg(amount) from sales group by region`)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string][3]float64, len(res.Rows))
	for _, r := range res.Rows {
		s, _ := r[1].AsFloat()
		c, _ := r[2].AsFloat()
		a, _ := r[3].AsFloat()
		truth[r[0].String()] = [3]float64{s, c, a}
	}
	return truth
}

// TestHybridEstimateAnswersExactByDefault: with a fresh exact datacube
// covering the request, the default estimate path must return the exact
// SQL answer with a zero half-width and no sampled rows, while NoHybrid
// forces the pure-sample estimator — and the two modes must cache under
// distinct keys.
func TestHybridEstimateAnswersExactByDefault(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	truth := hybridTruth(t, w)
	ctx := context.Background()

	aggs := []struct {
		agg Aggregate
		ti  int
	}{{Sum, 0}, {Count, 1}, {Avg, 2}}
	for _, a := range aggs {
		ests, status, err := w.EstimateQueryOpts(ctx, "sales", []string{"region"}, a.agg, "amount", 0.95, ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if status != CacheMiss {
			t.Errorf("%v: first hybrid estimate cache status %v, want miss", a.agg, status)
		}
		if len(ests) != len(truth) {
			t.Fatalf("%v: %d groups, want %d", a.agg, len(ests), len(truth))
		}
		for _, e := range ests {
			want := truth[e.Key][a.ti]
			if e.Bound != 0 || e.SampleN != 0 {
				t.Errorf("%v %q: bound %v sampleN %d, want exact (0, 0)", a.agg, e.Key, e.Bound, e.SampleN)
			}
			if relDiff(e.Value, want) > 1e-9 {
				t.Errorf("%v %q: hybrid value %v != exact %v", a.agg, e.Key, e.Value, want)
			}
		}
		// Same request again: served from cache under the hybrid key.
		if _, status, err = w.EstimateQueryOpts(ctx, "sales", []string{"region"}, a.agg, "amount", 0.95, ApproxOptions{}); err != nil || status != CacheHit {
			t.Errorf("%v: repeat hybrid estimate (%v, %v), want cache hit", a.agg, status, err)
		}
		// NoHybrid must not alias the hybrid cache entry and must come
		// from the sample.
		sampled, status, err := w.EstimateQueryOpts(ctx, "sales", []string{"region"}, a.agg, "amount", 0.95, ApproxOptions{NoHybrid: true})
		if err != nil {
			t.Fatal(err)
		}
		if status != CacheMiss {
			t.Errorf("%v: first NoHybrid estimate cache status %v, want miss (distinct key)", a.agg, status)
		}
		for _, e := range sampled {
			if e.SampleN == 0 {
				t.Errorf("%v %q: NoHybrid estimate has no sampled rows", a.agg, e.Key)
			}
		}
	}
	m := w.Metrics()
	if m.HybridExact != int64(len(aggs)) {
		t.Errorf("HybridExact = %d, want %d (one per uncached hybrid estimate)", m.HybridExact, len(aggs))
	}
	if m.HybridFallback != 0 {
		t.Errorf("HybridFallback = %d, want 0", m.HybridFallback)
	}
}

// TestHybridStaleEpochGuard: any epoch advance the insert feed did not
// produce (here: a synopsis refresh) must disable hybrid answering —
// the estimate falls back to the pure-sample path and counts a fallback
// — until the next insert proves the cube's feed is live again, at
// which point hybrid answers return and include the inserted rows.
func TestHybridStaleEpochGuard(t *testing.T) {
	w, tbl := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	est := func(opts ApproxOptions) []GroupEstimate {
		t.Helper()
		// NoCache: the guard must be observed live, not through a cached
		// pre-refresh answer.
		opts.NoCache = true
		ests, _, err := w.EstimateQueryOpts(ctx, "sales", []string{"region"}, Sum, "amount", 0.95, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ests
	}
	for _, e := range est(ApproxOptions{}) {
		if e.SampleN != 0 || e.Bound != 0 {
			t.Fatalf("pre-refresh %q not exact: %+v", e.Key, e)
		}
	}

	if err := w.RefreshSynopsis("sales"); err != nil {
		t.Fatal(err)
	}
	stale := est(ApproxOptions{})
	pure := est(ApproxOptions{NoHybrid: true})
	if len(stale) != len(pure) {
		t.Fatalf("stale groups %d != pure-sample %d", len(stale), len(pure))
	}
	pureByKey := make(map[string]GroupEstimate, len(pure))
	for _, e := range pure {
		pureByKey[e.Key] = e
	}
	for _, e := range stale {
		p := pureByKey[e.Key]
		if e.SampleN == 0 {
			t.Errorf("post-refresh %q answered without samples — stale cube served", e.Key)
		}
		if e.Value != p.Value || e.Bound != p.Bound || e.SampleN != p.SampleN {
			t.Errorf("post-refresh %q: hybrid-disabled answer %+v != pure-sample %+v", e.Key, e, p)
		}
	}
	if m := w.Metrics(); m.HybridFallback == 0 {
		t.Error("no HybridFallback counted for stale-cube estimates")
	}

	// An insert re-feeds the cube and re-syncs the epoch: hybrid answers
	// come back and must include the new row.
	truthBefore := hybridTruth(t, w)["east"][0]
	if err := tbl.Insert(Str("east"), Str("pen"), F(1000)); err != nil {
		t.Fatal(err)
	}
	reenabled := est(ApproxOptions{})
	for _, e := range reenabled {
		if e.SampleN != 0 || e.Bound != 0 {
			t.Fatalf("post-insert %q not exact: %+v", e.Key, e)
		}
		if e.Key == "east" && relDiff(e.Value, truthBefore+1000) > 1e-9 {
			t.Errorf("post-insert east = %v, want %v (inserted row missing from cube)", e.Value, truthBefore+1000)
		}
	}
}

// TestHybridShardedDifferential: a sharded warehouse at K ∈ {2, 4} must
// reproduce the single warehouse's hybrid answers to 1e-9 — every shard
// holds a fresh cube, so the merged estimate is exact on both sides —
// and the pure-sample (NoHybrid) scatter-gather differential must keep
// holding with hybrid code in the path. A mixed-coverage merge (only j
// of K shards answering from their cubes) must keep the point estimate
// near the exact answer while its half-width shrinks monotonically
// with j.
func TestHybridShardedDifferential(t *testing.T) {
	rel, err := tpcd.Generate(tpcd.Params{TableSize: 12_000, NumGroups: 27, GroupSkew: 0.86, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec := SynopsisSpec{
		Table:   rel.Name,
		GroupBy: tpcd.GroupingAttrs,
		Space:   1200,
		Seed:    7,
	}
	single := Open()
	if _, err := single.AttachRelation(rel); err != nil {
		t.Fatal(err)
	}
	if err := single.BuildSynopsis(spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grouping := []string{"l_returnflag"}
	for _, k := range []int{2, 4} {
		sw, err := OpenSharded(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.AttachRelation(rel, tpcd.GroupingAttrs); err != nil {
			t.Fatal(err)
		}
		if err := sw.BuildSynopsis(spec); err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Aggregate{Sum, Count, Avg} {
			want, err := single.Estimate(rel.Name, grouping, agg, "l_quantity", 0.95)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.Estimate(rel.Name, grouping, agg, "l_quantity", 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d %v: %d groups, want %d", k, agg, len(got), len(want))
			}
			byKey := make(map[string]GroupEstimate, len(want))
			for _, e := range want {
				if e.Bound != 0 || e.SampleN != 0 {
					t.Fatalf("single %v %q not hybrid-exact: %+v", agg, e.Key, e)
				}
				byKey[e.Key] = e
			}
			for _, e := range got {
				w, ok := byKey[e.Key]
				if !ok {
					t.Fatalf("k=%d %v: group %q missing from single", k, agg, e.Key)
				}
				if relDiff(e.Value, w.Value) > 1e-9 || e.Bound != 0 || e.SampleN != 0 {
					t.Errorf("k=%d %v %q: sharded hybrid %+v != single %+v", k, agg, e.Key, e, w)
				}
			}
		}

		// Mixed coverage: j covered shards, K−j sampled. The half-width
		// must shrink monotonically as coverage grows, and the value must
		// stay within the merged bound of the exact answer.
		exact, err := single.Estimate(rel.Name, grouping, Sum, "l_quantity", 0.95)
		if err != nil {
			t.Fatal(err)
		}
		exactByKey := make(map[string]float64, len(exact))
		for _, e := range exact {
			exactByKey[e.Key] = e.Value
		}
		prev := map[string]float64{}
		for j := 0; j <= k; j++ {
			lists := make([][]GroupPartial, k)
			for i := 0; i < k; i++ {
				lists[i], err = sw.Shard(i).EstimatePartialsOpts(ctx, rel.Name, grouping, "l_quantity",
					PartialsOptions{NoHybrid: i >= j})
				if err != nil {
					t.Fatal(err)
				}
			}
			ests, err := estimate.Finalize(estimate.MergePartials(lists...), Sum, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ests {
				if j > 0 {
					base, ok := prev[e.Key]
					if !ok {
						t.Fatalf("k=%d j=%d: group %q appeared mid-sweep", k, j, e.Key)
					}
					if e.Bound > base*(1+1e-12) {
						t.Errorf("k=%d j=%d %q: bound %v wider than at j-1 (%v)", k, j, e.Key, e.Bound, base)
					}
				}
				if j == k && e.Bound != 0 {
					t.Errorf("k=%d full coverage %q: bound %v, want 0", k, e.Key, e.Bound)
				}
				prev[e.Key] = e.Bound
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHybridPersistenceRoundTrip: a snapshot taken while the cube is
// fresh must restore with hybrid answering intact; a snapshot taken
// while the cube is stale (post-refresh, pre-insert) must restore with
// hybrid disabled — the same contract a legacy snapshot without an
// ExactCube gets — staying disabled until a synopsis rebuild seeds a
// fresh cube.
func TestHybridPersistenceRoundTrip(t *testing.T) {
	ctx := context.Background()
	estimateOnce := func(w *Warehouse) []GroupEstimate {
		t.Helper()
		ests, _, err := w.EstimateQueryOpts(ctx, "sales", []string{"region"}, Sum, "amount", 0.95,
			ApproxOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return ests
	}

	t.Run("fresh cube survives recovery", func(t *testing.T) {
		dir := t.TempDir()
		w, _ := buildSalesWarehouse(t)
		if err := w.BuildSynopsis(SynopsisSpec{
			Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		want := hybridTruth(t, w)
		if err := w.Save(dir); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDir(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		ests := estimateOnce(re)
		if len(ests) != len(want) {
			t.Fatalf("%d groups after recovery, want %d", len(ests), len(want))
		}
		for _, e := range ests {
			if e.Bound != 0 || e.SampleN != 0 {
				t.Errorf("recovered %q not hybrid-exact: %+v", e.Key, e)
			}
			if relDiff(e.Value, want[e.Key][0]) > 1e-9 {
				t.Errorf("recovered %q = %v, want %v", e.Key, e.Value, want[e.Key][0])
			}
		}
	})

	t.Run("stale cube restores disabled until insert", func(t *testing.T) {
		dir := t.TempDir()
		w, _ := buildSalesWarehouse(t)
		if err := w.BuildSynopsis(SynopsisSpec{
			Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		// Refresh leaves the cube stale; ExportState must then omit it.
		if err := w.RefreshSynopsis("sales"); err != nil {
			t.Fatal(err)
		}
		if err := w.Save(dir); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDir(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		for _, e := range estimateOnce(re) {
			if e.SampleN == 0 {
				t.Errorf("recovered-from-stale %q answered exactly — cube should not have been exported", e.Key)
			}
		}
		// No cube object was restored, so there is nothing an insert could
		// re-sync: hybrid stays off until the synopsis is rebuilt (the
		// build seeds a fresh cube from the base relation).
		tbl, err := re.Table("sales")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(Str("west"), Str("pen"), F(3)); err != nil {
			t.Fatal(err)
		}
		for _, e := range estimateOnce(re) {
			if e.SampleN == 0 {
				t.Errorf("insert alone re-enabled hybrid with no restored cube: %q %+v", e.Key, e)
			}
		}
		if err := re.BuildSynopsis(SynopsisSpec{
			Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		for _, e := range estimateOnce(re) {
			if e.SampleN != 0 || e.Bound != 0 {
				t.Errorf("rebuild did not re-enable hybrid: %q %+v", e.Key, e)
			}
		}
	})
}

// TestHybridRenderedKeyCollision: a NULL region and the string "NULL"
// are distinct finest groups but render alike. The exact cube must merge
// them into one "NULL" group, as the sample path's rendered keys do,
// before and after inserts that reach both through the live feed.
func TestHybridRenderedKeyCollision(t *testing.T) {
	w := Open()
	tbl, err := w.CreateTable("sales", Col("region", String), Col("product", String), Col("amount", Float))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(region Value, amount float64) {
		t.Helper()
		if err := tbl.Insert(region, Str("pen"), F(amount)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		insert(Str("east"), 1)
		insert(Value{}, 10)
		insert(Str("NULL"), 100)
	}
	if err := w.BuildSynopsis(SynopsisSpec{Table: "sales", GroupBy: []string{"region", "product"}, Space: 30, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	check := func(wantNull float64) {
		t.Helper()
		ctx := context.Background()
		exact, _, err := w.EstimateQueryOpts(ctx, "sales", []string{"region"}, Sum, "amount", 0.95, ApproxOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		sampled, _, err := w.EstimateQueryOpts(ctx, "sales", []string{"region"}, Sum, "amount", 0.95, ApproxOptions{NoCache: true, NoHybrid: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) != 2 || len(sampled) != len(exact) {
			t.Fatalf("hybrid groups %v, sampled groups %v; want {east, NULL} in both", exact, sampled)
		}
		for i, e := range exact {
			if e.Key != sampled[i].Key || e.Bound != 0 {
				t.Errorf("group %d: hybrid %q bound %v vs sampled %q", i, e.Key, e.Bound, sampled[i].Key)
			}
			if e.Key == "NULL" && e.Value != wantNull {
				t.Errorf("merged NULL group sum %v, want %v", e.Value, wantNull)
			}
		}
	}
	check(40*10 + 40*100)
	insert(Value{}, 10)
	insert(Str("NULL"), 100)
	check(41*10 + 41*100)
}
