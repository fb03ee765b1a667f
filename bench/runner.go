package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/engine"
	paper "github.com/approxdb/congress/internal/workload"
	"github.com/approxdb/congress/pkg/client"
)

type runConfig struct {
	seed    int64
	window  time.Duration
	trace   bool
	dir     string
	spanOut string
}

// setupRepeats is how many times an untraced run starts its deployment;
// setup_s is the median. The last deployment serves the load.
const setupRepeats = 3

// opTimeout bounds one request, so a hung call fails instead of hanging
// the run.
const opTimeout = 20 * time.Second

// minSamples is what a p99 needs under the percentile rule.
const minSamples = 100 * minBeyond

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func runWorkload(wl *workload, cfg runConfig) (*result, error) {
	d, err := genData(cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := d.partition(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	in := newInputs()

	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var setups []float64
	var st *stack
	for i := 0; i < repeats; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		if st, err = wl.setup(d, cfg.dir, i); err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, st.setupS)
		logf("setup %d: %.3fs (build %.3fs, %.0f allocs)", i, st.setupS, st.buildS, st.buildAllocs)
	}
	defer st.close()

	res := &result{correct: true, metrics: make(map[string]float64)}
	gen := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = wl.next(rng, st, d, in)
		}
		return ops
	}
	var vis *visTracker
	if st.follower != nil {
		vis = startVisTracker(st)
		defer vis.stop()
	}
	count := func(s []sample) {
		for _, x := range s {
			res.attempted++
			if x.failed {
				res.failed++
			}
		}
	}
	before := st.counters()

	// The nominal rate, untraced, for the whole window. A traced run
	// reports p99s, so it runs longer where the window holds fewer
	// requests than a p99 needs. The latency metrics come from here.
	n := int(wl.nominalRPS * cfg.window.Seconds())
	if cfg.trace {
		n = max(n, minSamples+minSamples/20)
	}
	nominalOps := gen(n)
	rt0 := readRuntime()
	nominal := phase(nominalOps, wl.nominalRPS, vis)
	rt1 := readRuntime()
	count(nominal)
	logf("nominal %.0f/s: %d ops, %s", wl.nominalRPS, len(nominal), summarize(nominal))
	var ladder []sample
	if cfg.trace {
		// Bisection over the fixed ladder for the SLO rate, one tenth of
		// the window per step.
		stepDur := cfg.window / 10
		slo, steps := sloSearch(wl.ladder, wl.limitMS, func(rate float64) []sample {
			s := phase(gen(int(rate*stepDur.Seconds())), rate, vis)
			count(s)
			ladder = append(ladder, s...)
			time.Sleep(50 * time.Millisecond)
			return s
		})
		for _, s := range steps {
			logf("ladder %.0f/s: %.2f%% over %.0fms, backlog %.2fms, pass %v", s.rate, 100*s.missShare, wl.limitMS, s.backlogMS, s.pass)
		}
		res.metrics["e2e.slo_rps"] = slo
	}

	var traced []sample
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		in.keepResp = true
		ops := gen(len(nominalOps))
		for i := range ops {
			ops[i] = tr.wrap(ops[i], int64(i))
		}
		traced = phase(ops, wl.nominalRPS, vis)
		count(traced)
		logf("traced %.0f/s: %d ops, %s", wl.nominalRPS, len(traced), summarize(traced))
	}

	after := st.counters()
	if vis != nil {
		if err := st.waitFollower(30 * time.Second); err != nil {
			return nil, err
		}
		vis.stop()
	}
	logf("distinct SQL texts sent: %.0f (repeat share %.3f)", in.sqlDistinct(), in.sqlRepeatShare())
	au, err := audit(st, d)
	if err != nil {
		return nil, err
	}
	res.gateFailures = append(res.gateFailures, au.failures...)
	if st.follower != nil {
		res.gateFailures = append(res.gateFailures, followerGate(st)...)
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)

	var rec *recovery
	if st.dataDir != "" {
		if rec, err = recoverLeader(st, d, cfg.dir); err != nil {
			return nil, err
		}
		res.gateFailures = append(res.gateFailures, rec.failures...)
	}
	res.attempted += au.ops
	res.failed += len(res.gateFailures)
	res.correct = len(res.gateFailures) == 0

	rlat := latencies(nominal, nil)
	qlat := latencies(nominal, func(s sample) bool { return s.kind == opQuery })
	rp50, ok1 := percentile(rlat, 0.50)
	qp50, ok2 := percentile(qlat, 0.50)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%d requests (%d queries) cannot support the reported percentiles", len(rlat), len(qlat))
	}
	okOps := res.attempted - res.failed
	if !cfg.trace {
		res.metrics["setup_s"] = median(setups)
		res.metrics["request_p50_ms"] = rp50
		res.metrics["query_p50_ms"] = qp50
		res.metrics["heap_mb"] = heapMB
		res.metrics["rel_err_mean"] = au.relErrMean()
		res.metrics["bound_coverage"] = au.coverage()
		res.metrics["ok_pct"] = 100 * float64(okOps) / float64(res.attempted)
		return res, nil
	}

	m := res.metrics
	ilat := latencies(nominal, func(s sample) bool { return s.kind == opInsert })
	m["e2e.insert.samples"] = float64(len(ilat))
	m["e2e.query.samples"] = float64(len(qlat))
	m["e2e.query.p99_ms"] = quantile(qlat, 0.99)
	m["e2e.insert.p50_ms"] = quantile(ilat, 0.50)
	m["e2e.insert.p99_ms"] = quantile(ilat, 0.99)
	if vis != nil {
		v := vis.latencies()
		m["e2e.visible.p50_ms"] = quantile(v, 0.50)
		m["e2e.visible.p99_ms"] = quantile(v, 0.99)
		m["repl.lag_records_max"] = float64(vis.lagMax())
	}
	untracedMean := meanLatency(nominal)
	m["e2e.request.mean_ms"] = untracedMean
	m["e2e.request.p95_ms"] = quantile(rlat, 0.95)
	m["e2e.request.p99_ms"] = quantile(rlat, 0.99)
	m["bench.trace_overhead_pct"] = 100 * (meanLatency(traced) - untracedMean) / untracedMean
	m["bench.gen_late_p99_ms"] = genLateP99(append(append([]sample(nil), nominal...), traced...))
	m["bench.sql_repeat_share"] = in.sqlRepeatShare()
	m["bench.sql_distinct"] = in.sqlDistinct()
	rt1.derive(rt0, len(nominal), m)
	layerCounters(st, before, after, [][]sample{nominal, ladder, traced}, m)
	m["server.queue_wait.p99_ms"] = queueWaitP99(traced)
	if rec != nil {
		m["persist.recover.s"] = rec.seconds
	}

	if err := replayShards(st, in, tr, m); err != nil {
		return nil, err
	}
	// The served deployment is done; replay each layer's entry point
	// with this run's inputs on stacks of the replays' own.
	st.close()
	runtime.GC()
	if err := replayLayers(d, in, tr, cfg.dir, m); err != nil {
		return nil, err
	}
	m["bench.spans"] = float64(tr.len())
	if err := tr.dump(cfg.spanOut); err != nil {
		return nil, err
	}
	return res, nil
}

// phase runs one open-loop phase and feeds acknowledged inserts to the
// follower-visibility tracker.
func phase(ops []op, rate float64, vis *visTracker) []sample {
	if vis != nil {
		for i := range ops {
			if ops[i].kind == opInsert {
				after := ops[i].after
				ops[i].after = func() { after(); vis.noteAck() }
			}
		}
	}
	return openLoop(ops, rate, opTimeout)
}

func meanLatency(s []sample) float64 {
	var sum float64
	n := 0
	for _, x := range s {
		if !x.failed {
			sum += ms(x.end - x.due)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func summarize(s []sample) string {
	q := latencies(s, func(x sample) bool { return x.kind == opQuery })
	i := latencies(s, func(x sample) bool { return x.kind == opInsert })
	fails := 0
	for _, x := range s {
		if x.failed {
			fails++
		}
	}
	msg := fmt.Sprintf("query n=%d p50 %.2fms p99 %.2fms; insert n=%d p50 %.2fms p99 %.2fms; failed %d; gen late p99 %.3fms",
		len(q), quantile(q, 0.5), quantile(q, 0.99), len(i), quantile(i, 0.5), quantile(i, 0.99), fails, genLateP99(s))
	classes := map[string][]float64{}
	for _, x := range s {
		if !x.failed {
			classes[x.class] = append(classes[x.class], ms(x.end-x.start))
		}
	}
	for c, v := range classes {
		msg += fmt.Sprintf("\n  %s n=%d service p50 %.2fms p90 %.2fms max %.2fms", c, len(v), quantile(v, 0.5), quantile(v, 0.9), quantile(v, 1))
	}
	if e, ok := lastErr.Load().(string); ok && fails > 0 {
		msg += " (last error: " + e + ")"
	}
	return msg
}

// queueWaitP99 is the p99 of client-observed time outside the server's
// own execution (elapsed_ms): admission-queue wait plus the wire and
// codec on both sides.
func queueWaitP99(s []sample) float64 {
	var v []float64
	for _, x := range s {
		if x.kind == opQuery && !x.failed {
			v = append(v, ms(x.end-x.start)-x.serverMS)
		}
	}
	return quantile(v, 0.99)
}

// visTracker measures follower visibility: for each acknowledged insert
// it notes the leader's log position, then polls the follower until it
// has applied that position.
type visTracker struct {
	st      *stack
	mu      sync.Mutex
	pending []visEntry
	lat     []float64
	maxLag  int64
	done    chan struct{}
	wg      sync.WaitGroup
}

type visEntry struct {
	ack time.Time
	gen uint64
	seq int64
}

func startVisTracker(st *stack) *visTracker {
	v := &visTracker{st: st, done: make(chan struct{})}
	v.wg.Add(1)
	go v.poll()
	return v
}

func (v *visTracker) noteAck() {
	now := time.Now()
	ps, _ := v.st.w.PersistStats()
	v.mu.Lock()
	v.pending = append(v.pending, visEntry{now, ps.Generation, ps.RecordSeq})
	v.mu.Unlock()
}

func (v *visTracker) poll() {
	defer v.wg.Done()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-v.done:
			return
		case <-t.C:
		}
		f := v.st.follower
		if f == nil {
			continue
		}
		s := f.Status()
		now := time.Now()
		v.mu.Lock()
		if s.LagRecords > v.maxLag {
			v.maxLag = s.LagRecords
		}
		kept := v.pending[:0]
		for _, e := range v.pending {
			if followerHas(s, e.gen, e.seq) {
				v.lat = append(v.lat, ms(now.Sub(e.ack)))
			} else {
				kept = append(kept, e)
			}
		}
		v.pending = kept
		v.mu.Unlock()
	}
}

func (v *visTracker) stop() {
	select {
	case <-v.done:
	default:
		close(v.done)
	}
	v.wg.Wait()
}

func (v *visTracker) latencies() []float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]float64(nil), v.lat...)
}

func (v *visTracker) lagMax() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.maxLag
}

// runtimeSample is a reading of the process's runtime counters.
type runtimeSample struct {
	mem      runtime.MemStats
	gcCPU    float64
	totalCPU float64
}

func readRuntime() runtimeSample {
	var r runtimeSample
	runtime.ReadMemStats(&r.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	return r
}

// derive fills the runtime.* metrics for the interval since r0.
func (r runtimeSample) derive(r0 runtimeSample, ops int, m map[string]float64) {
	if cpu := r.totalCPU - r0.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_fraction"] = (r.gcCPU - r0.gcCPU) / cpu
	}
	n := int(r.mem.NumGC - r0.mem.NumGC)
	if n > len(r.mem.PauseNs) {
		n = len(r.mem.PauseNs)
	}
	pauses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := (int(r.mem.NumGC) - 1 - i + len(r.mem.PauseNs)) % len(r.mem.PauseNs)
		pauses = append(pauses, float64(r.mem.PauseNs[idx])/1e6)
	}
	m["runtime.gc_pause_p99_ms"] = quantile(pauses, 0.99)
	if ops > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(r.mem.TotalAlloc-r0.mem.TotalAlloc) / float64(ops)
	}
}

// ---- audit and correctness gates ----

// auditResult collects the end-of-run accuracy audit.
type auditResult struct {
	ops      int
	relErrs  []float64
	covered  int
	bounded  int
	failures []string
}

func (a *auditResult) fail(format string, args ...any) {
	if len(a.failures) < 20 {
		a.failures = append(a.failures, fmt.Sprintf(format, args...))
	}
}

func (a *auditResult) relErrMean() float64 {
	var s float64
	for _, e := range a.relErrs {
		s += e
	}
	if len(a.relErrs) == 0 {
		return 0
	}
	return s / float64(len(a.relErrs))
}

func (a *auditResult) coverage() float64 {
	if a.bounded == 0 {
		return 0
	}
	return float64(a.covered) / float64(a.bounded)
}

func relErr(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}

// auditGroupings are the groupings the audit estimates at: Qg2's and
// Qg3's.
var auditGroupings = [][]int{{colFlag, colStatus}, {colFlag, colStatus, colDate}}

// audit checks the deployment's answers against exact ground truth once
// the load has stopped. Gates: every approximate answer has every group
// the exact answer has; no hybrid bound is wider than the pure-sample
// bound of the same request; the audit SQL runs vectorized.
func audit(st *stack, d *dataset) (*auditResult, error) {
	a := &auditResult{}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Hybrid first: the refresh below leaves the exact cube stale, and a
	// stale cube sends every hybrid request down the pure-sample path.
	auditHybrid(ctx, st, d, a)
	// Inserted rows reach sample answers when the synopsis is refreshed
	// (until then they wait in the maintainer); refresh so the audit
	// judges the whole acknowledged table.
	if _, err := st.c.Insert(ctx, client.InsertRequest{Table: table, Refresh: true}); err != nil {
		a.fail("refreshing the synopsis before the audit: %v", err)
	}
	a.ops++
	if st.w != nil {
		v0, f0 := engine.ExecCounts()
		for _, q := range []struct {
			sql  string
			cols []int
			sums []int // answer columns after the group columns → truth measures
		}{
			{paper.Qg2, []int{colFlag, colStatus}, []int{colQty, colPrice}},
			{paper.Qg3, []int{colFlag, colStatus, colDate}, []int{colQty}},
		} {
			resp, err := st.c.Query(ctx, client.QueryRequest{SQL: q.sql, NoCache: true})
			a.ops++
			if err != nil {
				a.fail("audit %q: %v", firstLine(q.sql), err)
				continue
			}
			got := make(map[string][]any, len(resp.Rows))
			for _, row := range resp.Rows {
				k, err := wireKey(row, len(q.cols))
				if err != nil {
					return nil, err
				}
				got[k] = row
			}
			for k, t := range d.truth(q.cols) {
				row, ok := got[k]
				if !ok {
					a.fail("approximate %q misses group %q", firstLine(q.sql), k)
					continue
				}
				for i, mcol := range q.sums {
					est, _ := row[len(q.cols)+i].(float64)
					want := t.sumQty
					if mcol == colPrice {
						want = t.sumPrice
					}
					a.relErrs = append(a.relErrs, relErr(est, want))
				}
			}
		}
		if v1, f1 := engine.ExecCounts(); f1 != f0 || v1 == v0 {
			a.fail("audit SQL left the vectorized engine: %d vectorized, %d row-engine statements", v1-v0, f1-f0)
		}
	}
	for _, cols := range auditGroupings {
		names := auditNames(cols)
		for _, agg := range aggs {
			req := client.EstimateRequest{Table: table, GroupBy: names, Agg: agg, Column: "l_quantity", Confidence: confidence}
			pure, err := st.c.Query(ctx, client.QueryRequest{Estimate: &req, NoCache: true, NoHybrid: true})
			a.ops++
			if err != nil {
				a.fail("audit estimate %s by %v: %v", agg, names, err)
				continue
			}
			pureBy := byGroup(pure.Groups)
			for k, t := range d.truth(cols) {
				want := t.sumQty
				switch agg {
				case "count":
					want = t.n
				case "avg":
					want = t.sumQty / t.n
				}
				g, ok := pureBy[k]
				if !ok {
					a.fail("estimate %s by %v misses group %q", agg, names, k)
					continue
				}
				a.relErrs = append(a.relErrs, relErr(g.Value, want))
				a.bounded++
				if math.Abs(g.Value-want) <= g.Bound {
					a.covered++
				}
			}
		}
	}
	return a, nil
}

// auditHybrid asks each audit estimate twice, hybrid and pure-sample,
// while the exact cube is still in step with the inserts. Gates: the
// hybrid answer has every group of the exact answer, each hybrid
// request is answered at least in part from the cube (so the comparison
// cannot silently degrade to pure-sample against itself), and no hybrid
// bound is wider than the pure-sample bound of the same group.
func auditHybrid(ctx context.Context, st *stack, d *dataset, a *auditResult) {
	for _, cols := range auditGroupings {
		names := auditNames(cols)
		truth := d.truth(cols)
		for _, agg := range aggs {
			req := client.EstimateRequest{Table: table, GroupBy: names, Agg: agg, Column: "l_quantity", Confidence: confidence}
			pure, err := st.c.Query(ctx, client.QueryRequest{Estimate: &req, NoCache: true, NoHybrid: true})
			a.ops++
			if err != nil {
				a.fail("audit pure-sample estimate %s by %v: %v", agg, names, err)
				continue
			}
			cube0 := st.cubeAnswers()
			hyb, err := st.c.Query(ctx, client.QueryRequest{Estimate: &req, NoCache: true})
			a.ops++
			if err != nil {
				a.fail("audit hybrid estimate %s by %v: %v", agg, names, err)
				continue
			}
			if st.cubeAnswers() == cube0 {
				a.fail("hybrid estimate %s by %v took nothing from the exact cube", agg, names)
			}
			hybBy := byGroup(hyb.Groups)
			for k := range truth {
				if _, ok := hybBy[k]; !ok {
					a.fail("hybrid estimate %s by %v misses group %q", agg, names, k)
				}
			}
			// The pure-sample answer lacks the groups first seen since the
			// last refresh; the bounds compare on the groups both have.
			pureBy := byGroup(pure.Groups)
			for k, g := range hybBy {
				if p, ok := pureBy[k]; ok && g.Bound > p.Bound+1e-9*math.Max(1, p.Bound) {
					a.fail("hybrid %s by %v group %q bound %v wider than pure-sample %v", agg, names, k, g.Bound, p.Bound)
				}
			}
		}
	}
}

// cubeAnswers counts the estimates answered wholly or partly from an
// exact cube (congress_hybrid_exact_total + congress_hybrid_residual_total),
// summed over the deployment's warehouses.
func (st *stack) cubeAnswers() int64 {
	var n int64
	add := func(w *congress.Warehouse) {
		m := w.Metrics()
		n += m.HybridExact + m.HybridResidual
	}
	if st.w != nil {
		add(st.w)
	}
	for _, w := range st.shards {
		add(w)
	}
	return n
}

func auditNames(cols []int) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = groupCols[c-colFlag]
	}
	return names
}

func byGroup(gs []client.GroupEstimate) map[string]client.GroupEstimate {
	by := make(map[string]client.GroupEstimate, len(gs))
	for _, g := range gs {
		by[strings.Join(g.Group, congress.EstimateKeySep)] = g
	}
	return by
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

// followerGate: at the end of the run the follower holds exactly the
// leader's rows.
func followerGate(st *stack) []string {
	lead, err1 := countRows(st.w)
	fol, err2 := countRows(st.fw)
	switch {
	case err1 != nil || err2 != nil:
		return []string{fmt.Sprintf("counting rows: leader %v, follower %v", err1, err2)}
	case lead != fol:
		return []string{fmt.Sprintf("follower has %d rows, leader %d", fol, lead)}
	}
	return nil
}

func countRows(w *congress.Warehouse) (int64, error) {
	res, err := w.Query("select count(*) from " + table)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 {
		return 0, fmt.Errorf("count(*) returned %d rows", len(res.Rows))
	}
	n, _ := res.Rows[0][0].AsInt()
	return n, nil
}

// recovery is the outcome of reopening the leader's data directory.
type recovery struct {
	seconds  float64
	failures []string
}

// recoverLeader stops the deployment without a clean shutdown, copies
// the leader's data directory as a crash image, and times OpenDir on the
// copy. Gate: every acknowledged row is present after recovery.
func recoverLeader(st *stack, d *dataset, dir string) (*recovery, error) {
	st.stopServing()
	st.waitSnapshots(30 * time.Second)
	img := filepath.Join(dir, "recover")
	if err := copyDir(st.dataDir, img); err != nil {
		return nil, err
	}
	defer os.RemoveAll(img)
	t0 := time.Now()
	w, _, err := congress.OpenDir(img, congress.PersistOptions{Fsync: fsyncPolicy, SnapshotInterval: -1, SnapshotEvery: -1})
	if err != nil {
		return nil, fmt.Errorf("recovering the leader's data directory: %w", err)
	}
	rec := &recovery{seconds: time.Since(t0).Seconds()}
	defer w.Close()
	res, err := w.Query(fmt.Sprintf("select l_id from %s where l_id > %d", table, baseRows))
	if err != nil {
		return nil, err
	}
	have := make(map[int64]bool, len(res.Rows))
	for _, r := range res.Rows {
		id, _ := r[0].AsInt()
		have[id] = true
	}
	missing := 0
	for _, r := range d.ackedRows() {
		if !have[r[colID].I] {
			missing++
		}
	}
	if missing > 0 {
		rec.failures = append(rec.failures, fmt.Sprintf("%d acknowledged rows missing after recovery", missing))
	}
	total, err := countRows(w)
	if err != nil {
		return nil, err
	}
	if want := int64(baseRows + len(d.ackedRows())); total < want {
		rec.failures = append(rec.failures, fmt.Sprintf("recovered %d rows, want at least %d", total, want))
	}
	return rec, nil
}

// waitSnapshots waits until no background snapshot is in flight: every
// generation the leader rotated to since set-up has its snapshot
// written (a snapshot rotates the generation when it starts and counts
// itself when written).
func (st *stack) waitSnapshots(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ps, _ := st.w.PersistStats()
		if int64(ps.Generation)-st.gen0 <= st.w.Metrics().Snapshots.Count-st.snaps0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
