package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Every workload must report every one, so a
// figure that exists on only some workloads (insert and
// follower-visibility latency, recovery time, disk bytes per row) is
// reported by the traced run under the e2e.* and persist.* per-layer
// names. Latency is per request of the workload's whole mix;
// query_p50_ms is the reads alone, so on olap_read, which sends no
// inserts, the two are the same figure. The tail percentiles and the SLO rate
// are reported by the traced run too (e2e.request.p95_ms, p99_ms,
// e2e.slo_rps): on a shared two-core host they moved by 20 to 60%
// between runs of the same commit — the ~5 ms p95 of ingest_durable
// doubles whenever the host stalls fsync — wider than the largest bound
// (25%) an end-to-end metric may carry.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"request_p50_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"heap_mb", "MiB", "lower"},
	{"rel_err_mean", "ratio", "lower"},
	{"bound_coverage", "ratio", "higher"},
	{"ok_pct", "%", "higher"},
}

// perLayer are the per-layer metrics of a traced run, named
// <module>.<op>.<stat>. A layer the workload does not exercise reports
// 0 (for example shard.* on olap_read).
var perLayer = []metricDef{
	// Workload-specific end-to-end figures, from the traced run's
	// untraced pass.
	{"e2e.insert.p50_ms", "ms", "lower"},
	{"e2e.insert.p99_ms", "ms", "lower"},
	{"e2e.insert.samples", "count", "higher"},
	{"e2e.visible.p50_ms", "ms", "lower"},
	{"e2e.visible.p99_ms", "ms", "lower"},
	{"e2e.request.mean_ms", "ms", "lower"},
	{"e2e.request.p95_ms", "ms", "lower"},
	{"e2e.request.p99_ms", "ms", "lower"},
	{"e2e.slo_rps", "1/s", "higher"},
	{"e2e.query.p99_ms", "ms", "lower"},
	{"e2e.query.samples", "count", "higher"},

	{"server.request_query.p50_ms", "ms", "lower"},
	{"server.request_query.p99_ms", "ms", "lower"},
	{"server.request_insert.p50_ms", "ms", "lower"},
	{"server.request_insert.p99_ms", "ms", "lower"},
	{"server.queue_wait.p99_ms", "ms", "lower"},
	{"server.shed", "count", "lower"},
	{"server.encode.ns_op", "ns", "lower"},
	{"server.encode.bytes_op", "B", "lower"},
	{"client.decode.ns_op", "ns", "lower"},

	{"sqlparse.parse.ns_op", "ns", "lower"},
	{"sqlparse.parse.allocs_op", "count", "lower"},
	{"rewrite.rewrite.ns_op", "ns", "lower"},
	{"rewrite.rewrite.allocs_op", "count", "lower"},
	{"rewrite.plancache.ns_op", "ns", "lower"},

	{"qcache.hit_ratio", "ratio", "higher"},
	{"qcache.hits", "count", "higher"},
	{"qcache.lookups", "count", "lower"},
	{"qcache.invalidations_per_insert", "ratio", "lower"},
	{"qcache.invalidations", "count", "lower"},

	{"engine.execute.ns_op", "ns", "lower"},
	{"engine.execute.allocs_op", "count", "lower"},
	{"engine.vectorized_ratio", "ratio", "higher"},
	{"engine.statements", "count", "lower"},
	{"engine.sample_rows", "count", "lower"},
	{"engine.relation_insert.ns_op", "ns", "lower"},

	{"aqua.approx.ns_op", "ns", "lower"},
	{"aqua.estimate.ns_op", "ns", "lower"},
	{"aqua.hybrid_exact_ratio", "ratio", "higher"},
	{"aqua.hybrid_lookups", "count", "lower"},
	{"aqua.groups_per_estimate", "count", "lower"},

	{"estimate.partials.ns_op", "ns", "lower"},
	{"estimate.merge.ns_op", "ns", "lower"},
	{"estimate.merge.allocs_op", "count", "lower"},
	{"estimate.finalize.ns_op", "ns", "lower"},

	{"core.build.s", "s", "lower"},
	{"core.build.allocs", "count", "lower"},
	{"core.refresh.ms", "ms", "lower"},
	{"congress.insert.ns_op", "ns", "lower"},
	{"congress.insert.allocs_op", "count", "lower"},
	{"core.maintain.ns_op", "ns", "lower"},
	{"core.maintain.allocs_op", "count", "lower"},
	{"sample.reservoir_offer.ns_op", "ns", "lower"},
	{"datacube.add_measured.ns_op", "ns", "lower"},
	{"datacube.add_measured.allocs_op", "count", "lower"},

	{"persist.wal_append.ns_op", "ns", "lower"},
	{"persist.fsyncs_per_insert", "ratio", "lower"},
	{"persist.wal_bytes_per_row", "B", "lower"},
	{"persist.disk_bytes_per_row", "B", "lower"},
	{"persist.snapshot.s", "s", "lower"},
	{"persist.snapshot.bytes", "B", "lower"},
	{"persist.snapshot.count", "count", "higher"},
	{"persist.recover.s", "s", "lower"},

	{"repl.bytes_shipped_per_row", "B", "lower"},
	{"repl.lag_records_max", "count", "lower"},
	{"repl.chunks_rejected", "count", "lower"},
	{"repl.reconnects", "count", "lower"},

	{"shard.fanout.ns_op", "ns", "lower"},
	{"shard.leg.p50_ms", "ms", "lower"},
	{"shard.leg.p99_ms", "ms", "lower"},
	{"shard.retries", "count", "lower"},
	{"shard.partials_bytes_per_leg", "B", "lower"},

	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.gc_pause_p99_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},

	{"bench.gen_late_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.sql_repeat_share", "ratio", "higher"},
	{"bench.sql_distinct", "count", "lower"},
	{"bench.spans", "count", "higher"},
}

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// and whether the sample supports it: at least minBeyond samples above
// it, and minBeyond below it for percentiles under the median.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	beyond := n - 1 - rank
	if p < 0.5 {
		beyond = rank
	}
	return sorted[rank], beyond >= minBeyond
}

// latencies turns samples into the latency distribution the percentile
// rule applies to. A failed or shed operation counts as missing every
// latency limit: it enters the distribution at the request timeout,
// above any limit.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		if s.failed {
			out = append(out, ms(opTimeout))
			continue
		}
		out = append(out, ms(s.end-s.due))
	}
	sort.Float64s(out)
	return out
}

// median of a small set of measurements (set-up repeats, step results).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
