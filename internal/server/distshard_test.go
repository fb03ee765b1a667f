package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// distCluster is a full distributed deployment inside one test: K shard
// congressd servers (each fronting one partition of a tpcd relation)
// plus a coordinator server wired over their HTTP endpoints, alongside
// a single-warehouse reference over the same data for differentials.
type distCluster struct {
	co        *congress.Coordinator
	c         *client.Client // talks to the coordinator server
	single    *congress.Warehouse
	sw        *congress.ShardedWarehouse // the shard backing stores
	shardSrvs []*httptest.Server
}

// newDistCluster partitions rows of lineitem across K shard servers by
// the finest grouping key and builds a fully enumerated synopsis
// (space ≥ every shard's row count) so estimates are sampling-noise
// free on both sides of the differential.
func newDistCluster(t *testing.T, shards, rows int) *distCluster {
	t.Helper()
	rel, err := tpcd.Generate(tpcd.Params{TableSize: rows, NumGroups: 27, GroupSkew: 0.86, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	spec := congress.SynopsisSpec{
		Table:   rel.Name,
		GroupBy: tpcd.GroupingAttrs,
		Space:   2 * rows, // ≥ every shard's row count → full enumeration
		Seed:    7,
	}
	single := congress.Open()
	single.AttachRelation(rel)
	if err := single.BuildSynopsis(spec); err != nil {
		t.Fatal(err)
	}
	sw, err := congress.OpenSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AttachRelation(rel, tpcd.GroupingAttrs); err != nil {
		t.Fatal(err)
	}
	if err := sw.BuildSynopsis(spec); err != nil {
		t.Fatal(err)
	}
	cl := &distCluster{single: single, sw: sw}
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv := New(Options{Warehouse: sw.Shard(i), Logger: quietLogger()})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		cl.shardSrvs = append(cl.shardSrvs, hs)
		urls[i] = hs.URL
	}
	co, err := congress.NewCoordinator(urls, congress.CoordinatorOptions{
		LegTimeout: 5 * time.Second,
		Retries:    1,
		MaxBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := co.WaitHealthy(ctx, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := co.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	cl.co = co
	_, cl.c = testServer(t, Options{Coordinator: co})
	return cl
}

func relDiffT(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return d / m
}

// TestDistShardDifferential is the distributed acceptance differential:
// a 4-shard deployment of real HTTP servers must reproduce the
// single-warehouse SUM/COUNT/AVG estimates — values, bounds and sample
// counts — to 1e-9 at every grouping granularity, because partials
// travel losslessly over the wire and the confidence interval is taken
// exactly once after the merge.
func TestDistShardDifferential(t *testing.T) {
	cl := newDistCluster(t, 4, 6000)
	ctx := context.Background()
	groupings := [][]string{
		{"l_returnflag"},
		{"l_returnflag", "l_linestatus"},
		tpcd.GroupingAttrs,
	}
	for _, grouping := range groupings {
		for _, agg := range []string{"sum", "count", "avg"} {
			want, err := cl.single.Estimate("lineitem", grouping, mustAgg(t, agg), "l_quantity", 0.95)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
				Table: "lineitem", GroupBy: grouping,
				Agg: agg, Column: "l_quantity", Confidence: 0.95,
			}})
			if err != nil {
				t.Fatalf("%v %s: %v", grouping, agg, err)
			}
			if len(res.Groups) != len(want) {
				t.Fatalf("%v %s: %d groups, want %d", grouping, agg, len(res.Groups), len(want))
			}
			byKey := make(map[string]congress.GroupEstimate, len(want))
			for _, e := range want {
				byKey[e.Key] = e
			}
			for _, g := range res.Groups {
				key := strings.Join(g.Group, congress.EstimateKeySep)
				w, ok := byKey[key]
				if !ok {
					t.Fatalf("%v %s: distributed group %q missing from single", grouping, agg, key)
				}
				if relDiffT(g.Value, w.Value) > 1e-9 {
					t.Errorf("%v %s %q: value %v != %v", grouping, agg, key, g.Value, w.Value)
				}
				if relDiffT(g.Bound, w.Bound) > 1e-9 {
					t.Errorf("%v %s %q: bound %v != %v", grouping, agg, key, g.Bound, w.Bound)
				}
				if g.SampleN != w.SampleN {
					t.Errorf("%v %s %q: SampleN %d != %d", grouping, agg, key, g.SampleN, w.SampleN)
				}
			}
		}
	}
}

func mustAgg(t *testing.T, s string) congress.Aggregate {
	t.Helper()
	agg, err := parseAggregate(s)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestDistShardInsertRouting: an insert through the coordinator lands
// on exactly one shard (chosen by the finest grouping key), the batch
// path routes a whole request in one leg per shard, and the refresh
// fans out so the rows become visible to a subsequent estimate.
func TestDistShardInsertRouting(t *testing.T) {
	cl := newDistCluster(t, 4, 2000)
	ctx := context.Background()

	before := make([]int, cl.sw.NumShards())
	for i := 0; i < cl.sw.NumShards(); i++ {
		tbl, err := cl.sw.Shard(i).Table("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		before[i] = tbl.NumRows()
	}
	ins, err := cl.c.Insert(ctx, client.InsertRequest{
		Table: "lineitem",
		Rows: [][]any{
			{int64(9_000_001), 0, 0, "1994-06-15", 7.0, 1200.0},
			{int64(9_000_002), 1, 1, "1994-07-15", 9.0, 1800.0},
			{int64(9_000_003), 0, 0, "1994-06-15", 3.0, 400.0},
		},
		Refresh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Inserted != 3 || !ins.Refreshed {
		t.Fatalf("insert response %+v", ins)
	}
	total := 0
	for i := 0; i < cl.sw.NumShards(); i++ {
		tbl, err := cl.sw.Shard(i).Table("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		total += tbl.NumRows() - before[i]
	}
	if total != 3 {
		t.Errorf("shards gained %d rows, want 3", total)
	}
	// Identical routing keys must land on the same shard as in-process
	// routing would choose.
	ct, err := cl.co.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.sw.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	row := congress.Row{congress.I(9_000_001), congress.I(0), congress.I(0),
		congress.D("1994-06-15"), congress.F(7), congress.F(1200)}
	if ct.RouteOf(row) != st.RouteOf(row) {
		t.Errorf("coordinator routes row to shard %d, in-process to %d", ct.RouteOf(row), st.RouteOf(row))
	}

	metrics, err := cl.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"congress_distshard_count 4",
		"congress_distshard_inserts_total",
		"congress_distshard_fanout_seconds",
		"server_requests_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDistShardKilledShard: killing one shard mid-deployment must fail
// coordinator queries with the typed shard_unavailable error — never a
// silently merged partial answer missing that shard's groups.
func TestDistShardKilledShard(t *testing.T) {
	cl := newDistCluster(t, 4, 2000)
	ctx := context.Background()

	cl.shardSrvs[2].Close() // SIGKILL stand-in: connections now refuse

	_, err := cl.c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
		Table: "lineitem", GroupBy: []string{"l_returnflag"},
		Agg: "sum", Column: "l_quantity", Confidence: 0.95,
	}})
	if err == nil {
		t.Fatal("query with a dead shard succeeded — partial answer was silently merged")
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != "shard_unavailable" || ae.Status != 503 {
		t.Fatalf("err = %v, want 503 shard_unavailable", err)
	}
	if !strings.Contains(ae.Message, "shard 2") {
		t.Errorf("error %q does not name the dead shard", ae.Message)
	}

	// Direct (non-HTTP) classification: errors.Is must see the sentinel.
	_, cerr := cl.co.Estimate("lineitem", []string{"l_returnflag"}, congress.Sum, "l_quantity", 0.95)
	if !errors.Is(cerr, congress.ErrShardUnavailable) {
		t.Errorf("Estimate error %v, want ErrShardUnavailable", cerr)
	}

	// The retry counter must have moved: the dead leg was retried before
	// being declared unavailable.
	metrics, merr := cl.c.Metrics(ctx)
	if merr != nil {
		t.Fatal(merr)
	}
	if !strings.Contains(metrics, `congress_distshard_fanout_retries_total{shard="2"} `) {
		t.Error("/metrics missing the shard 2 retry series")
	}
	if strings.Contains(metrics, `congress_distshard_fanout_retries_total{shard="2"} 0`) {
		t.Error("dead shard leg was never retried")
	}
}

// TestDistShardCoordinatorModeSurface: the coordinator serves the same
// API surface as the other two backends, a single warehouse and an
// in-process sharded one, each run as one input over the same data.
// Synopses merge across shards and ship the schema; allocation rows
// concatenate into one listing sorted by descending target; refresh and
// estimate on an unknown table are 404; /v1/estimate/partials is served
// in every mode, so deployments can tier coordinators. The sharded
// modes answer the SQL paths 400, every mode without a data directory
// answers snapshots 409, and healthz reports the mode's role.
func TestDistShardCoordinatorModeSurface(t *testing.T) {
	cl := newDistCluster(t, 2, 1500)
	ctx := context.Background()
	_, single := testServer(t, Options{Warehouse: cl.single})
	_, sharded := testServer(t, Options{Sharded: cl.sw})
	wantAlloc, err := cl.single.AllocationTable("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	wantParts, err := cl.single.EstimatePartialsOpts(ctx, "lineitem", []string{"l_returnflag"}, "l_quantity", congress.PartialsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name   string
		c      *client.Client
		shards int // the Shards a merged synopsis reports (0: unsharded)
		sql    bool
		role   string
	}{
		{"warehouse", single, 0, true, "standalone"},
		{"sharded", sharded, cl.sw.Synopses()[0].Shards, false, "standalone"},
		{"coordinator", cl.c, cl.sw.Synopses()[0].Shards, false, "coordinator"},
	} {
		t.Run(m.name, func(t *testing.T) {
			c := m.c
			if _, err := c.Query(ctx, client.QueryRequest{SQL: "select count(*) from lineitem"}); (err == nil) != m.sql {
				t.Errorf("SQL query error = %v, want accepted=%v", err, m.sql)
			}
			if _, err := c.Exact(ctx, client.ExactRequest{SQL: "select count(*) from lineitem"}); (err == nil) != m.sql {
				t.Errorf("/v1/exact error = %v, want accepted=%v", err, m.sql)
			}
			if _, err := c.Snapshot(ctx); err == nil {
				t.Error("/v1/snapshot accepted without a data directory")
			} else if ae, ok := err.(*client.APIError); !ok || ae.Code != "not_persistent" {
				t.Errorf("snapshot error = %v, want not_persistent", err)
			}

			infos, err := c.Synopses(ctx, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 || infos[0].Table != "lineitem" || infos[0].Shards != m.shards {
				t.Fatalf("synopses: %+v, want one lineitem entry over %d shards", infos, m.shards)
			}
			if len(infos[0].Columns) != 6 {
				t.Errorf("synopses ship %d columns, want 6", len(infos[0].Columns))
			}
			alloc := infos[0].Allocation
			if len(alloc) != len(wantAlloc) {
				t.Errorf("allocation lists %d groups, want %d", len(alloc), len(wantAlloc))
			}
			for i := 1; i < len(alloc); i++ {
				if alloc[i].Target > alloc[i-1].Target {
					t.Fatalf("allocation row %d target %v above row %d's %v: not sorted", i, alloc[i].Target, i-1, alloc[i-1].Target)
				}
			}

			for _, call := range []struct {
				what, code string
				do         func() error
			}{
				{"estimate", "no_synopsis", func() error {
					_, err := c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
						Table: "nope", GroupBy: []string{"l_returnflag"}, Agg: "sum", Column: "l_quantity",
					}})
					return err
				}},
				{"refresh", "unknown_table", func() error {
					_, err := c.Insert(ctx, client.InsertRequest{Table: "nope", Refresh: true})
					return err
				}},
			} {
				var ae *client.APIError
				if err := call.do(); !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != call.code {
					t.Errorf("%s on an unknown table: %v, want 404 %s", call.what, err, call.code)
				}
			}

			// The partials leg merges to the state a single warehouse
			// computes over the same strata.
			parts, err := c.Partials(ctx, client.PartialsRequest{
				Table: "lineitem", GroupBy: []string{"l_returnflag"}, Column: "l_quantity",
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(parts.Partials) == 0 {
				t.Fatal("partials empty")
			}
			if len(parts.Partials) != len(wantParts) {
				t.Errorf("partials: %d groups, want %d", len(parts.Partials), len(wantParts))
			}

			var hz map[string]any
			hres, err := http.Get(c.BaseURL() + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			defer hres.Body.Close()
			if err := json.NewDecoder(hres.Body).Decode(&hz); err != nil {
				t.Fatal(err)
			}
			if hz["role"] != m.role {
				t.Errorf("healthz role %v, want %s", hz["role"], m.role)
			}
		})
	}
}

// TestDistShardAllocationNoSynopsisTyped: AllocationTable for a table
// without a synopsis wraps ErrNoSynopsis on every backend, so callers
// can classify it like every other missing-synopsis error.
func TestDistShardAllocationNoSynopsisTyped(t *testing.T) {
	cl := newDistCluster(t, 2, 1000)
	for name, b := range map[string]interface {
		AllocationTable(string) ([]congress.AllocationRow, error)
	}{"warehouse": cl.single, "sharded": cl.sw, "coordinator": cl.co} {
		if _, err := b.AllocationTable("nope"); !errors.Is(err, congress.ErrNoSynopsis) {
			t.Errorf("%s: AllocationTable error %v, want ErrNoSynopsis", name, err)
		}
	}
}

// TestDistShardMetricsRenderCoordinatorCounters: the coordinator's own
// engine counters reach /metrics. A mixed-coverage estimate — one shard
// answering from its exact cube, the other from its sample — advances
// congress_hybrid_residual_total.
func TestDistShardMetricsRenderCoordinatorCounters(t *testing.T) {
	cl := newDistCluster(t, 2, 1500)
	ctx := context.Background()
	// A refresh leaves shard 0's cube stale until its next insert, so
	// that shard answers from its sample while shard 1 stays exact.
	if err := cl.sw.Shard(0).RefreshSynopsis("lineitem"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
		Table: "lineitem", GroupBy: []string{"l_returnflag"}, Agg: "sum", Column: "l_quantity",
	}}); err != nil {
		t.Fatal(err)
	}
	metrics, err := cl.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "congress_hybrid_residual_total 1\n") {
		t.Error("/metrics lacks congress_hybrid_residual_total 1")
	}
}

// TestDistShardDiscoverRejectsSchemaMismatch: shards disagreeing on a
// table's schema must fail discovery, not silently merge partials from
// different stratifications.
func TestDistShardDiscoverRejectsSchemaMismatch(t *testing.T) {
	mk := func(group []string) *httptest.Server {
		w := congress.Open()
		rel, err := tpcd.Generate(tpcd.Params{TableSize: 500, NumGroups: 9, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		w.AttachRelation(rel)
		if err := w.BuildSynopsis(congress.SynopsisSpec{
			Table: "lineitem", GroupBy: group, Space: 100, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(New(Options{Warehouse: w, Logger: quietLogger()}).Handler())
		t.Cleanup(hs.Close)
		return hs
	}
	a := mk([]string{"l_returnflag"})
	b := mk([]string{"l_returnflag", "l_linestatus"})
	co, err := congress.NewCoordinator([]string{a.URL, b.URL}, congress.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := co.Discover(ctx); err == nil {
		t.Fatal("Discover accepted shards with mismatched groupings")
	} else if !strings.Contains(err.Error(), "disagree") {
		t.Errorf("Discover error %v, want schema disagreement", err)
	}
}
