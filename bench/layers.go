package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/persist"
	"github.com/approxdb/congress/internal/repl"
	"github.com/approxdb/congress/internal/rewrite"
	reservoir "github.com/approxdb/congress/internal/sample"
	"github.com/approxdb/congress/internal/sqlparse"
	"github.com/approxdb/congress/pkg/client"
)

// counterSnap is a reading of the counters the program exports.
type counterSnap struct {
	tel      congress.MetricsSnapshot // front warehouse, or the shards summed
	exposed  map[string]float64       // the front server's /metrics
	follower repl.Status
	retries  float64
}

func (st *stack) counters() counterSnap {
	var c counterSnap
	if st.w != nil {
		c.tel = st.w.Metrics()
	}
	for _, w := range st.shards {
		addTel(&c.tel, w.Metrics())
	}
	if st.follower != nil {
		c.follower = st.follower.Status()
	}
	if st.c != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		text, err := st.c.Metrics(ctx)
		cancel()
		if err == nil {
			c.exposed = parseExposition(text)
		}
	}
	if st.co != nil {
		var sb strings.Builder
		st.co.ShardTelemetry().RenderAs(&sb, "shard")
		for k, v := range parseExposition(sb.String()) {
			if strings.HasPrefix(k, "shard_fanout_retries_total") {
				c.retries += v
			}
		}
	}
	return c
}

// addTel adds the counters the layer metrics use.
func addTel(into *congress.MetricsSnapshot, s congress.MetricsSnapshot) {
	into.CacheHits += s.CacheHits
	into.CacheMisses += s.CacheMisses
	into.CacheInvalidations += s.CacheInvalidations
	into.HybridExact += s.HybridExact
	into.HybridResidual += s.HybridResidual
	into.HybridFallback += s.HybridFallback
	into.EngineVectorized, into.EngineFallback = s.EngineVectorized, s.EngineFallback
}

// parseExposition reads "name{labels} value" lines into a map keyed by
// the name with its labels.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounters derives the counter-based layer metrics over the load
// phases (between before and after).
func layerCounters(st *stack, before, after counterSnap, phases [][]sample, m map[string]float64) {
	for _, route := range []string{"query", "insert"} {
		for _, q := range []struct{ label, stat string }{{"0.5", "p50_ms"}, {"0.99", "p99_ms"}} {
			k := fmt.Sprintf(`server_request_seconds{quantile=%q,route=%q}`, q.label, route)
			m["server.request_"+route+"."+q.stat] = 1000 * after.exposed[k]
		}
	}
	m["server.shed"] = after.exposed["server_requests_shed_total"] - before.exposed["server_requests_shed_total"]

	var insertReqs, insertRows float64
	for _, ph := range phases {
		for _, s := range ph {
			if s.kind == opInsert && !s.failed {
				insertReqs++
				insertRows += float64(s.rows)
			}
		}
	}
	b, a := before.tel, after.tel
	hits := float64(a.CacheHits - b.CacheHits)
	lookups := hits + float64(a.CacheMisses-b.CacheMisses)
	m["qcache.hits"] = hits
	m["qcache.lookups"] = lookups
	m["qcache.hit_ratio"] = ratio(hits, lookups)
	inval := float64(a.CacheInvalidations - b.CacheInvalidations)
	m["qcache.invalidations"] = inval
	m["qcache.invalidations_per_insert"] = ratio(inval, insertRows)

	vec := float64(a.EngineVectorized - b.EngineVectorized)
	stmts := vec + float64(a.EngineFallback-b.EngineFallback)
	m["engine.statements"] = stmts
	m["engine.vectorized_ratio"] = ratio(vec, stmts)

	exact := float64(a.HybridExact - b.HybridExact)
	hyb := exact + float64(a.HybridResidual-b.HybridResidual) + float64(a.HybridFallback-b.HybridFallback)
	m["aqua.hybrid_lookups"] = hyb
	m["aqua.hybrid_exact_ratio"] = ratio(exact, hyb)

	if st.dataDir != "" {
		wal := float64(a.WALBytes - b.WALBytes)
		snaps := float64(a.Snapshots.Count - b.Snapshots.Count)
		snapBytes := float64(a.SnapshotBytes - b.SnapshotBytes)
		m["persist.fsyncs_per_insert"] = ratio(float64(a.Fsyncs-b.Fsyncs), insertReqs)
		m["persist.wal_bytes_per_row"] = ratio(wal, insertRows)
		m["persist.disk_bytes_per_row"] = ratio(wal+snapBytes, insertRows)
		m["persist.snapshot.count"] = snaps
		m["persist.snapshot.bytes"] = ratio(snapBytes, snaps)
		m["persist.snapshot.s"] = ratio((a.Snapshots.Total - b.Snapshots.Total).Seconds(), snaps)
	}
	if st.dataDir != "" {
		m["repl.bytes_shipped_per_row"] = ratio(float64(after.follower.BytesShipped-before.follower.BytesShipped), insertRows)
		m["repl.chunks_rejected"] = float64(after.follower.ChunksRejected)
		m["repl.reconnects"] = float64(after.follower.Reconnects)
	}
	if st.co != nil {
		m["shard.retries"] = after.retries - before.retries
	}
}

// measureLoop runs fn for each of n inputs and returns the mean
// nanoseconds and heap allocations per call, the way go test -benchmem
// counts them.
func measureLoop(n int, fn func(i int)) (nsOp, allocsOp float64) {
	if n == 0 {
		return 0, 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&b)
	return float64(el.Nanoseconds()) / float64(n), float64(b.Mallocs-a.Mallocs) / float64(n)
}

func parseAgg(s string) congress.Aggregate {
	switch s {
	case "count":
		return congress.Count
	case "avg":
		return congress.Avg
	}
	return congress.Sum
}

// replayShards replays the run's estimate requests through the
// coordinator and, leg by leg, through each shard, while the sharded
// deployment is still up and idle.
func replayShards(st *stack, in *inputs, tr *tracer, m map[string]float64) error {
	if st.co == nil || len(in.estimates) == 0 {
		return nil
	}
	ctx := context.Background()
	var legBytes, legs float64
	var mergeN int
	var mergeNS, mergeAllocs, finNS float64
	for i, e := range in.estimates {
		opts := congress.PartialsOptions{NoHybrid: in.noHybrid[i]}
		var err error
		tr.do("shard.fanout", 0, int64(i), func(int64) {
			_, err = st.co.EstimatePartialsOpts(ctx, table, e.GroupBy, e.Column, opts)
		})
		if err != nil {
			return fmt.Errorf("coordinator partials: %w", err)
		}
		lists := make([][]estimate.GroupPartial, numShards)
		for s := 0; s < numShards; s++ {
			tr.do("shard.leg", 0, int64(i), func(int64) {
				lists[s], err = st.co.Shard(s).EstimatePartials(ctx, table, e.GroupBy, e.Column, opts)
			})
			if err != nil {
				return fmt.Errorf("shard %d partials: %w", s, err)
			}
			b, err := json.Marshal(lists[s])
			if err != nil {
				return err
			}
			legBytes += float64(len(b))
			legs++
		}
		var merged []estimate.GroupPartial
		ns, allocs := measureLoop(1, func(int) { merged = estimate.MergePartials(lists...) })
		mergeNS += ns
		mergeAllocs += allocs
		mergeN++
		ns, _ = measureLoop(1, func(int) { _, err = estimate.Finalize(merged, parseAgg(e.Agg), confidence) })
		if err != nil {
			return err
		}
		finNS += ns
	}
	m["shard.fanout.ns_op"] = tr.mean("shard.fanout")
	legMS := tr.durations("shard.leg")
	m["shard.leg.p50_ms"] = quantile(legMS, 0.50)
	m["shard.leg.p99_ms"] = quantile(legMS, 0.99)
	m["shard.partials_bytes_per_leg"] = ratio(legBytes, legs)
	m["estimate.merge.ns_op"] = mergeNS / float64(mergeN)
	m["estimate.merge.allocs_op"] = mergeAllocs / float64(mergeN)
	m["estimate.finalize.ns_op"] = finNS / float64(mergeN)

	// The partials scan and the whole estimate, on one shard's warehouse.
	return replayEstimates(st.shards[0], in, tr, m)
}

// replayEstimates replays the run's estimate requests through
// Warehouse.EstimateQueryOpts (result cache bypassed) and the
// pure-sample partials scan with its Finalize.
func replayEstimates(w *congress.Warehouse, in *inputs, tr *tracer, m map[string]float64) error {
	ctx := context.Background()
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	var groups, finNS float64
	for i, e := range in.estimates {
		tr.do("aqua.estimate", 0, int64(i), func(int64) {
			ests, _, err := w.EstimateQueryOpts(ctx, table, e.GroupBy, parseAgg(e.Agg), e.Column, confidence,
				congress.ApproxOptions{NoCache: true, NoHybrid: in.noHybrid[i]})
			keep(err)
			groups += float64(len(ests))
		})
	}
	// The partials scan is timed alone; its Finalize is timed apart.
	for i, e := range in.estimates {
		var parts []congress.GroupPartial
		tr.do("estimate.partials", 0, int64(i), func(int64) {
			var err error
			parts, err = w.EstimatePartialsOpts(ctx, table, e.GroupBy, e.Column, congress.PartialsOptions{NoHybrid: true})
			keep(err)
		})
		t0 := time.Now()
		_, err := estimate.Finalize(parts, parseAgg(e.Agg), confidence)
		finNS += float64(time.Since(t0).Nanoseconds())
		keep(err)
	}
	m["aqua.estimate.ns_op"] = tr.mean("aqua.estimate")
	m["estimate.partials.ns_op"] = tr.mean("estimate.partials")
	if firstErr != nil {
		return fmt.Errorf("replaying estimates: %w", firstErr)
	}
	if n := float64(len(in.estimates)); n > 0 {
		m["aqua.groups_per_estimate"] = groups / n
		if m["estimate.finalize.ns_op"] == 0 {
			m["estimate.finalize.ns_op"] = finNS / n
		}
	}
	return nil
}

// replayCodec re-encodes and re-decodes the responses the traced pass
// received: the server's JSON encode and the client's decode.
func replayCodec(in *inputs, tr *tracer, m map[string]float64) error {
	if len(in.responses) == 0 {
		return nil
	}
	bodies := make([][]byte, len(in.responses))
	var bytes float64
	var err error
	for i, r := range in.responses {
		tr.do("server.encode", 0, int64(i), func(int64) { bodies[i], err = json.Marshal(r) })
		if err != nil {
			return err
		}
		bytes += float64(len(bodies[i]))
	}
	for i, b := range bodies {
		var r client.QueryResponse
		tr.do("client.decode", 0, int64(i), func(int64) { err = json.Unmarshal(b, &r) })
		if err != nil {
			return err
		}
	}
	m["server.encode.ns_op"] = tr.mean("server.encode")
	m["server.encode.bytes_op"] = bytes / float64(len(bodies))
	m["client.decode.ns_op"] = tr.mean("client.decode")
	return nil
}

// replayLayers builds stacks of the replays' own over the same base data
// and replays the run's inputs through each layer's exported entry
// point: the warehouse facade, then aqua's parse → rewrite → execute
// chain and the write path's layers one by one.
func replayLayers(d *dataset, in *inputs, tr *tracer, dir string, m map[string]float64) error {
	ctx := context.Background()
	if err := replayCodec(in, tr, m); err != nil {
		return err
	}

	// The warehouse facade: BuildSynopsis is the ROADMAP write-path row.
	rel, err := d.relation(d.base)
	if err != nil {
		return err
	}
	w := congress.Open()
	if _, err := w.AttachRelation(rel); err != nil {
		return err
	}
	var st stack
	tr.do("core.build", 0, 0, func(int64) { err = st.timedBuild(w, d.spec(len(d.base))) })
	if err != nil {
		return err
	}
	m["core.build.s"] = st.buildS
	m["core.build.allocs"] = st.buildAllocs

	m["aqua.approx.ns_op"], _ = measureLoop(len(in.sql), func(i int) {
		tr.do("aqua.approx", 0, int64(i), func(int64) {
			if _, _, e := w.ApproxQuery(ctx, in.sql[i], congress.ApproxOptions{NoCache: true}); e != nil && err == nil {
				err = e
			}
		})
	})
	if err != nil {
		return fmt.Errorf("replaying approximate SQL: %w", err)
	}
	if m["aqua.estimate.ns_op"] == 0 {
		if err := replayEstimates(w, in, tr, m); err != nil {
			return err
		}
	}

	var rows []engine.Row
	for _, batch := range in.inserts {
		rows = append(rows, batch...)
	}
	if len(rows) > 0 {
		t, err := w.Table(table)
		if err != nil {
			return err
		}
		m["congress.insert.ns_op"], m["congress.insert.allocs_op"] = measureLoop(len(rows), func(i int) {
			if e := t.Insert(rows[i]...); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("replaying Table.Insert: %w", err)
		}
	}
	t0 := time.Now()
	if err := w.RefreshSynopsis(table); err != nil {
		return err
	}
	m["core.refresh.ms"] = ms(time.Since(t0))
	w = nil
	runtime.GC()

	if len(in.sql) == 0 && len(rows) == 0 {
		return nil
	}
	// aqua's own stack, for the layers the facade hides.
	cat := engine.NewCatalog()
	arel, err := d.relation(d.base)
	if err != nil {
		return err
	}
	cat.Register(arel)
	spec := d.spec(len(d.base))
	a := aqua.New(cat)
	syn, err := a.CreateSynopsis(aqua.Config{
		Table: table, GroupCols: groupCols, Strategy: spec.Strategy, Space: spec.Space,
		BuildWorkers: spec.BuildWorkers, Seed: spec.Seed,
	})
	if err != nil {
		return err
	}
	strat := syn.DefaultRewrite()
	tables := syn.Tables(strat)
	if len(in.sql) > 0 {
		if err := replaySQL(ctx, cat, in.sql, strat, tables, tr, m); err != nil {
			return err
		}
	}
	if len(rows) == 0 {
		return nil
	}
	m["engine.relation_insert.ns_op"], _ = measureLoop(len(rows), func(i int) { arel.Insert(rows[i]) })
	mt := syn.Maintainer()
	m["core.maintain.ns_op"], m["core.maintain.allocs_op"] = measureLoop(len(rows), func(i int) { mt.Insert(rows[i]) })

	g, err := core.NewGrouping(d.schema, groupCols)
	if err != nil {
		return err
	}
	cube, err := datacube.NewWithMeasures(groupCols, measureCols)
	if err != nil {
		return err
	}
	measures := func(r engine.Row) []datacube.MeasureValue {
		return []datacube.MeasureValue{{V: r[colQty].F, OK: true}, {V: r[colPrice].F, OK: true}}
	}
	for _, r := range d.base {
		if err := cube.AddMeasured(g.ID(r), measures(r)); err != nil {
			return err
		}
	}
	m["datacube.add_measured.ns_op"], m["datacube.add_measured.allocs_op"] = measureLoop(len(rows), func(i int) {
		cube.AddMeasured(g.ID(rows[i]), measures(rows[i]))
	})

	res, err := reservoir.NewReservoir[engine.Row](spec.Space/numGroups, rand.New(rand.NewSource(d.seed)))
	if err != nil {
		return err
	}
	for _, r := range d.base[:numGroups] {
		res.Offer(r)
	}
	m["sample.reservoir_offer.ns_op"], _ = measureLoop(len(rows), func(i int) { res.Offer(rows[i]) })

	wal, err := persist.CreateWAL(filepath.Join(dir, "replay.wal"), fsyncPolicy, 0, nil)
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(in.inserts))
	for i, batch := range in.inserts {
		wire := make([][]any, len(batch))
		for j, r := range batch {
			wire[j] = wireRow(r)
		}
		if payloads[i], err = json.Marshal(wire); err != nil {
			return err
		}
	}
	m["persist.wal_append.ns_op"], _ = measureLoop(len(payloads), func(i int) {
		tr.do("persist.wal_append", 0, int64(i), func(int64) {
			if _, e := wal.Append(payloads[i]); e != nil {
				err = e
			}
		})
	})
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// replaySQL runs each recorded SQL text through sqlparse.Parse,
// rewrite.Rewrite and engine.ExecuteCtx on the sample, as one span with
// a child per layer, then measures each layer's allocations alone.
func replaySQL(ctx context.Context, cat *engine.Catalog, sqls []string, strat rewrite.Strategy, tables rewrite.Tables, tr *tracer, m map[string]float64) error {
	stmts := make([]*sqlparse.SelectStmt, len(sqls))
	plans := make([]*sqlparse.SelectStmt, len(sqls))
	var err error
	for i, q := range sqls {
		tr.do("replay.sql", 0, int64(i), func(id int64) {
			tr.do("sqlparse.parse", id, int64(i), func(int64) { stmts[i], err = sqlparse.Parse(q) })
			if err != nil {
				return
			}
			tr.do("rewrite.rewrite", id, int64(i), func(int64) { plans[i], err = rewrite.Rewrite(stmts[i], strat, tables) })
			if err != nil {
				return
			}
			tr.do("engine.execute", id, int64(i), func(int64) { _, err = engine.ExecuteCtx(ctx, cat, plans[i]) })
		})
		if err != nil {
			return fmt.Errorf("replaying %q: %w", firstLine(q), err)
		}
	}
	m["sqlparse.parse.ns_op"] = tr.mean("sqlparse.parse")
	m["rewrite.rewrite.ns_op"] = tr.mean("rewrite.rewrite")
	m["engine.execute.ns_op"] = tr.mean("engine.execute")
	_, m["sqlparse.parse.allocs_op"] = measureLoop(len(sqls), func(i int) { sqlparse.Parse(sqls[i]) })
	_, m["rewrite.rewrite.allocs_op"] = measureLoop(len(sqls), func(i int) { rewrite.Rewrite(stmts[i], strat, tables) })
	_, m["engine.execute.allocs_op"] = measureLoop(len(sqls), func(i int) { engine.ExecuteCtx(ctx, cat, plans[i]) })
	pc := rewrite.NewPlanCache(4096)
	m["rewrite.plancache.ns_op"], _ = measureLoop(len(sqls), func(i int) { pc.Rewrite(stmts[i], sqls[i], strat, tables) })
	// Every approximate statement scans the whole sample relation;
	// congress_rows_scanned_total counts only build and refresh scans.
	if rel, ok := cat.Lookup(tables.Sample); ok {
		m["engine.sample_rows"] = float64(rel.NumRows())
	}
	return nil
}
