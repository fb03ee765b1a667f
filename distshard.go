package congress

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/metrics"
	"github.com/approxdb/congress/internal/shard"
	"github.com/approxdb/congress/pkg/client"
)

// This file is the scatter-gather Coordinator. It fronts K shards —
// in-process warehouses (localShard, sharded.go) or congressd processes
// reached over HTTP (RemoteShard, below) — and runs every cross-shard
// operation once, over ShardBackend legs: inserts route by the finest
// grouping key through shard.Router; estimates fan the partials scan out,
// merge with estimate.MergePartials, and take the confidence interval
// exactly once with estimate.Finalize — per-shard half-widths are never
// summed. With finest-key routing the merged answer is numerically
// identical to a single warehouse over the same strata, which the
// differential tests pin to 1e-9.

// ErrShardUnavailable marks a scatter-gather leg that failed terminally
// at the transport or availability layer after exhausting its retries:
// the shard process is down, unreachable, or persistently shedding. A
// coordinator never answers from the surviving shards alone — a merged
// partial answer would silently drop every group homed on the missing
// shard — so the whole query fails with this typed error.
var ErrShardUnavailable = errors.New("congress: shard unavailable")

// ShardBackend is one scatter-gather leg: the per-shard operations a
// Coordinator fans out. An in-process *Warehouse (OpenSharded) and
// RemoteShard (a congressd process, NewCoordinator) are its two
// implementations, and the only difference between the two modes. A leg
// holding no synopsis for the table answers ErrNoSynopsis (the shard had
// no rows of it at build time); the Coordinator skips such legs.
type ShardBackend interface {
	// EstimatePartials runs the partials scan over the shard's sample.
	EstimatePartials(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error)
	// Insert appends rows whose home is this shard and reports how many
	// were applied.
	Insert(ctx context.Context, table string, rows []Row) (int, error)
	// Refresh re-materializes the shard's sample of the table.
	Refresh(ctx context.Context, table string) error
	// Synopses lists the shard's synopses.
	Synopses(ctx context.Context) ([]SynopsisInfo, error)
	// AllocationTable reports the shard's allocation for the table.
	AllocationTable(ctx context.Context, table string) ([]AllocationRow, error)
}

// scatter runs fn on every leg with cancel-on-first-failure (see
// shard.Fanout). Legs answering ErrNoSynopsis contribute the zero value;
// when every leg does, the error wraps ErrNoSynopsis.
func scatter[T any](ctx context.Context, co *Coordinator, table string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	var empty atomic.Int32
	out, err := shard.Fanout(ctx, len(co.legs), func(ctx context.Context, i int) (T, error) {
		v, err := fn(ctx, i)
		if errors.Is(err, ErrNoSynopsis) {
			empty.Add(1)
			var zero T
			return zero, nil
		}
		return v, err
	})
	if err != nil {
		return nil, err
	}
	if int(empty.Load()) == len(co.legs) {
		return nil, fmt.Errorf("%w %q", ErrNoSynopsis, table)
	}
	return out, nil
}

// CoordinatorOptions tunes the coordinator's per-leg failure handling.
// The zero value of every field has a sensible default.
type CoordinatorOptions struct {
	// LegTimeout bounds each fan-out attempt against one shard (also
	// forwarded as the shard-side timeout_ms). Default 10s.
	LegTimeout time.Duration
	// Retries is how many extra attempts a transiently failing partials
	// leg gets (transport errors, 429/503/5xx) before the query fails
	// with ErrShardUnavailable. Default 2; negative means none.
	Retries int
	// MaxBackoff caps the exponential retry backoff. Default 2s.
	MaxBackoff time.Duration
	// HTTPClient substitutes the transport for every shard client
	// (tests, custom TLS).
	HTTPClient *http.Client
}

func (o *CoordinatorOptions) withDefaults() {
	if o.LegTimeout <= 0 {
		o.LegTimeout = 10 * time.Second
	}
	switch {
	case o.Retries == 0:
		o.Retries = 2
	case o.Retries < 0:
		o.Retries = 0
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
}

// RemoteShard is one shard process seen from the coordinator: a
// pkg/client handle plus the retry policy for its scatter-gather legs.
// It is the HTTP ShardBackend, so the merge path cannot tell a remote
// shard from an in-process one.
type RemoteShard struct {
	ord        int
	endpoint   string
	c          *client.Client
	tel        *shard.Telemetry
	legTimeout time.Duration
	retries    int
	maxBackoff time.Duration
}

// Endpoint returns the shard process's base URL.
func (rs *RemoteShard) Endpoint() string { return rs.endpoint }

// Client returns the underlying API client (diagnostics, tests).
func (rs *RemoteShard) Client() *client.Client { return rs.c }

// mapShardError classifies one leg failure: terminal errors are mapped
// onto the package's typed sentinels (so errors.Is classification works
// across the process boundary exactly as in-process), transient ones
// (transport failures, shedding, 5xx) report terminal=false and are
// retried by the caller.
func mapShardError(err error) (mapped error, terminal bool) {
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return err, false // transport-level failure: the process may come back
	}
	switch ae.Code {
	case "bad_query", "bad_request":
		return fmt.Errorf("%w: %s", ErrBadQuery, ae.Message), true
	case "no_synopsis":
		return fmt.Errorf("%w: %s", ErrNoSynopsis, ae.Message), true
	case "unknown_table":
		return fmt.Errorf("%w: %s", ErrUnknownTable, ae.Message), true
	}
	if ae.Status == http.StatusTooManyRequests ||
		ae.Status == http.StatusServiceUnavailable || ae.Status >= 500 {
		return err, false
	}
	return err, true // remaining 4xx: retrying the same request cannot help
}

// wrapErr maps a shard client error for callers: typed sentinels pass
// through, everything transport/availability-shaped wraps
// ErrShardUnavailable with the shard's identity.
func (rs *RemoteShard) wrapErr(err error) error {
	if mapped, terminal := mapShardError(err); terminal {
		return mapped
	}
	return fmt.Errorf("%w: shard %d (%s): %v", ErrShardUnavailable, rs.ord, rs.endpoint, err)
}

// EstimatePartials runs the partials scan on the remote shard with
// per-attempt timeouts and retry-with-backoff on transient failures,
// honoring the shard's Retry-After hint when it sheds. Terminal API
// errors map onto the typed sentinels; exhausted retries wrap
// ErrShardUnavailable with the shard ordinal and endpoint.
func (rs *RemoteShard) EstimatePartials(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error) {
	req := client.PartialsRequest{
		Table:     table,
		GroupBy:   grouping,
		Column:    aggCol,
		NoHybrid:  opts.NoHybrid,
		TimeoutMS: rs.legTimeout.Milliseconds(),
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= rs.retries; attempt++ {
		if attempt > 0 {
			rs.tel.AddRetry(rs.ord)
			wait := backoff
			var ae *client.APIError
			if errors.As(lastErr, &ae) && ae.RetryAfter > wait {
				wait = ae.RetryAfter
			}
			if wait > rs.maxBackoff {
				wait = rs.maxBackoff
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(wait):
			}
			backoff *= 2
		}
		actx, cancel := context.WithTimeout(ctx, rs.legTimeout)
		resp, err := rs.c.Partials(actx, req)
		cancel()
		if err == nil {
			return resp.Partials, nil
		}
		// The parent context going away is a sibling's failure or the
		// caller's deadline, not this shard's fault: report it as such so
		// Fanout's error selection can discard it.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		mapped, terminal := mapShardError(err)
		if terminal {
			return nil, mapped
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: shard %d (%s) after %d attempts: %v",
		ErrShardUnavailable, rs.ord, rs.endpoint, rs.retries+1, lastErr)
}

// Insert forwards rows to the shard process in one request. It is not
// retried on transport failure — the coordinator cannot know whether the
// shard applied the rows before the connection died, and a blind retry
// could double-insert; the caller sees ErrShardUnavailable and decides.
// (429 shedding is retried inside the client: shed requests are
// rejected before execution, so that retry is safe.)
func (rs *RemoteShard) Insert(ctx context.Context, table string, rows []Row) (int, error) {
	wire := make([][]any, len(rows))
	for i, row := range rows {
		wire[i] = wireRow(row)
	}
	ctx, cancel := context.WithTimeout(ctx, rs.legTimeout)
	defer cancel()
	resp, err := rs.c.Insert(ctx, client.InsertRequest{Table: table, Rows: wire})
	if err != nil {
		return 0, rs.wrapErr(err)
	}
	return resp.Inserted, nil
}

// Refresh re-materializes the shard's sample: an insert of no rows with
// refresh=true.
func (rs *RemoteShard) Refresh(ctx context.Context, table string) error {
	ctx, cancel := context.WithTimeout(ctx, rs.legTimeout)
	defer cancel()
	if _, err := rs.c.Insert(ctx, client.InsertRequest{Table: table, Refresh: true}); err != nil {
		return rs.wrapErr(err)
	}
	return nil
}

// Synopses lists the shard process's synopses from its /v1/synopses.
func (rs *RemoteShard) Synopses(ctx context.Context) ([]SynopsisInfo, error) {
	list, err := rs.synopses(ctx, false)
	if err != nil {
		return nil, err
	}
	out := make([]SynopsisInfo, len(list))
	for i, ci := range list {
		out[i] = SynopsisInfo{
			Table:          ci.Table,
			GroupBy:        ci.GroupBy,
			Strategy:       ci.Strategy,
			Space:          ci.Space,
			SampleSize:     ci.SampleSize,
			Strata:         ci.Strata,
			PendingInserts: ci.PendingInserts,
		}
	}
	return out, nil
}

// AllocationTable reports the shard's allocation rows for the table,
// from its /v1/synopses?allocation=1 listing.
func (rs *RemoteShard) AllocationTable(ctx context.Context, table string) ([]AllocationRow, error) {
	list, err := rs.synopses(ctx, true)
	if err != nil {
		return nil, err
	}
	for _, ci := range list {
		if !strings.EqualFold(ci.Table, table) {
			continue
		}
		rows := make([]AllocationRow, len(ci.Allocation))
		for i, ar := range ci.Allocation {
			rows[i] = AllocationRow{
				Group:      ar.Group,
				Population: ar.Population,
				PreScale:   ar.PreScale,
				Target:     ar.Target,
				Actual:     ar.Actual,
			}
		}
		return rows, nil
	}
	return nil, fmt.Errorf("%w %q", ErrNoSynopsis, table)
}

func (rs *RemoteShard) synopses(ctx context.Context, withAllocation bool) ([]client.SynopsisInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, rs.legTimeout)
	defer cancel()
	list, err := rs.c.Synopses(ctx, withAllocation)
	if err != nil {
		return nil, rs.wrapErr(err)
	}
	return list, nil
}

// Coordinator fronts K shards, in-process (OpenSharded) or congressd
// processes (NewCoordinator): inserts route by the finest grouping key,
// estimates scatter-gather partials and merge them, and refreshes,
// synopsis listings and allocation tables fan out over the same legs.
// congressd mounts it behind the ordinary /v1 API. Safe for concurrent
// use (over HTTP legs: after Discover).
type Coordinator struct {
	router *shard.Router
	tel    *shard.Telemetry
	mtel   *metrics.Telemetry // coordinator-level engine counters (hybrid composition)
	legs   []ShardBackend
	mem    *shard.Membership // HTTP membership; nil over in-process legs
	opts   CoordinatorOptions

	mu     sync.RWMutex
	tables map[string]*ShardedTable // lower-cased name → handle
}

// newCoordinator returns a coordinator for n shards with no legs yet;
// the caller appends one per shard ordinal.
func newCoordinator(n int, opts CoordinatorOptions) (*Coordinator, error) {
	router, err := shard.NewRouter(n)
	if err != nil {
		return nil, fmt.Errorf("congress: %w", err)
	}
	opts.withDefaults()
	return &Coordinator{
		router: router,
		tel:    shard.NewTelemetry(n),
		mtel:   metrics.NewTelemetry(),
		opts:   opts,
		tables: make(map[string]*ShardedTable),
	}, nil
}

// NewCoordinator builds a coordinator over the shard endpoints (index
// == shard ordinal; every coordinator must list the same endpoints in
// the same order or keys route differently). Call WaitHealthy and then
// Discover before serving.
func NewCoordinator(endpoints []string, opts CoordinatorOptions) (*Coordinator, error) {
	mem, err := shard.NewMembership(endpoints)
	if err != nil {
		return nil, fmt.Errorf("congress: %w", err)
	}
	co, err := newCoordinator(len(mem.Endpoints), opts)
	if err != nil {
		return nil, err
	}
	co.mem = mem
	opts = co.opts // with defaults applied
	for i, ep := range mem.Endpoints {
		copts := []client.Option{client.WithRetry(opts.Retries, opts.MaxBackoff)}
		if opts.HTTPClient != nil {
			copts = append(copts, client.WithHTTPClient(opts.HTTPClient))
		}
		co.legs = append(co.legs, &RemoteShard{
			ord:        i,
			endpoint:   ep,
			c:          client.New(ep, copts...),
			tel:        co.tel,
			legTimeout: opts.LegTimeout,
			retries:    opts.Retries,
			maxBackoff: opts.MaxBackoff,
		})
	}
	return co, nil
}

// NumShards returns the configured shard count.
func (co *Coordinator) NumShards() int { return len(co.legs) }

// Endpoints returns the shard base URLs in ordinal order (nil over
// in-process legs).
func (co *Coordinator) Endpoints() []string {
	if co.mem == nil {
		return nil
	}
	return co.mem.Endpoints
}

// Shard returns the i-th remote shard (diagnostics, tests); nil when the
// leg is an in-process warehouse.
func (co *Coordinator) Shard(i int) *RemoteShard {
	rs, _ := co.legs[i].(*RemoteShard)
	return rs
}

// ShardTelemetry returns the coordinator's per-shard counters, rendered
// on /metrics as congress_shard_* (in-process) or congress_distshard_*.
func (co *Coordinator) ShardTelemetry() *shard.Telemetry { return co.tel }

// WaitHealthy blocks until every shard process answers its health probe
// or ctx expires; the timeout error names the shards still down.
// In-process legs are always up: over them it returns nil at once.
func (co *Coordinator) WaitHealthy(ctx context.Context, interval time.Duration) error {
	if co.mem == nil {
		return nil
	}
	byEndpoint := make(map[string]*RemoteShard, len(co.legs))
	for i := range co.legs {
		byEndpoint[co.Shard(i).endpoint] = co.Shard(i)
	}
	return co.mem.WaitHealthy(ctx, interval, func(ctx context.Context, endpoint string) error {
		pctx, cancel := context.WithTimeout(ctx, co.opts.LegTimeout)
		defer cancel()
		return byEndpoint[endpoint].c.Health(pctx)
	})
}

// Discover interrogates every shard's /v1/synopses for its tables and
// schemas, verifies the shards agree (same grouping and columns for
// every shared table — a disagreeing shard would merge partials from a
// different stratification), and registers the routing state. Call once
// after WaitHealthy; re-call to pick up tables created later. Over
// in-process legs it returns nil: OpenSharded registers its tables at
// CreateTable and AttachRelation.
func (co *Coordinator) Discover(ctx context.Context) error {
	if co.mem == nil {
		return nil
	}
	infos, err := shard.Fanout(ctx, len(co.legs), func(ctx context.Context, i int) ([]client.SynopsisInfo, error) {
		actx, cancel := context.WithTimeout(ctx, co.opts.LegTimeout)
		defer cancel()
		out, err := co.Shard(i).c.Synopses(actx, false)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d (%s): discovery: %v",
				ErrShardUnavailable, i, co.Shard(i).endpoint, err)
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	type seenAt struct {
		info  client.SynopsisInfo
		shard int
	}
	first := make(map[string]seenAt)
	for i, list := range infos {
		for _, si := range list {
			key := strings.ToLower(si.Table)
			prev, ok := first[key]
			if !ok {
				first[key] = seenAt{si, i}
				continue
			}
			if err := sameShardSchema(prev.info, si); err != nil {
				return fmt.Errorf("congress: shards %d and %d disagree on table %q: %w",
					prev.shard, i, si.Table, err)
			}
		}
	}
	tables := make(map[string]*ShardedTable, len(first))
	for key, at := range first {
		si := at.info
		if len(si.Columns) == 0 {
			return fmt.Errorf("congress: shard %d (%s) reports no schema for table %q — upgrade the shard congressd",
				at.shard, co.Shard(at.shard).endpoint, si.Table)
		}
		cols := make([]engine.Column, len(si.Columns))
		for j, cs := range si.Columns {
			kind, err := engine.ParseKind(cs.Kind)
			if err != nil {
				return fmt.Errorf("congress: table %q column %q: %w", si.Table, cs.Name, err)
			}
			cols[j] = engine.Column{Name: cs.Name, Kind: kind}
		}
		schema, err := engine.NewSchema(cols...)
		if err != nil {
			return fmt.Errorf("congress: table %q: %w", si.Table, err)
		}
		g, err := core.NewGrouping(schema, si.GroupBy)
		if err != nil {
			return fmt.Errorf("congress: table %q routing grouping: %w", si.Table, err)
		}
		tables[key] = &ShardedTable{co: co, name: si.Table, cols: cols, g: g}
	}
	co.mu.Lock()
	co.tables = tables
	co.mu.Unlock()
	return nil
}

// sameShardSchema verifies two shards' views of one table agree on the
// synopsis grouping and column schema.
func sameShardSchema(a, b client.SynopsisInfo) error {
	if !equalStrings(a.GroupBy, b.GroupBy) {
		return fmt.Errorf("group-by %v vs %v", a.GroupBy, b.GroupBy)
	}
	if len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("%d vs %d columns", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("column %d: %v vs %v", i, a.Columns[i], b.Columns[i])
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Table returns the handle to a registered table; the error wraps
// ErrUnknownTable for errors.Is classification.
func (co *Coordinator) Table(name string) (*ShardedTable, error) {
	co.mu.RLock()
	t := co.tables[strings.ToLower(name)]
	co.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("congress: %w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// ShardedTable is a handle to a table partitioned across a Coordinator's
// shards: its schema and the routing grouping whose key picks each
// row's home shard.
type ShardedTable struct {
	co   *Coordinator
	name string
	cols []engine.Column
	g    *core.Grouping
}

// Columns returns a copy of the table's schema columns, in order.
func (t *ShardedTable) Columns() []engine.Column {
	return append([]engine.Column(nil), t.cols...)
}

// Name returns the table name.
func (t *ShardedTable) Name() string { return t.name }

// RouteOf reports which shard a row's routing key maps to.
func (t *ShardedTable) RouteOf(row Row) int { return t.co.router.Route(t.g.Key(row)) }

// Insert routes one row to its home shard and appends it there; the
// shard's synopsis maintainer (if any) is fed as on an unsharded
// warehouse.
func (t *ShardedTable) Insert(vals ...Value) error {
	row := Row(vals)
	if err := t.checkArity(row); err != nil {
		return err
	}
	_, err := t.insertOn(context.Background(), t.RouteOf(row), []Row{row})
	return err
}

// InsertBatch routes a batch of rows, grouping by home shard and
// issuing one insert per shard in parallel. Returns the number of rows
// acknowledged; on a failed leg the rows of *other* shards may still
// have been applied (per-shard inserts are independent), which the
// returned count reflects.
func (t *ShardedTable) InsertBatch(ctx context.Context, rows []Row) (int, error) {
	parts := make([][]Row, len(t.co.legs))
	for _, row := range rows {
		if err := t.checkArity(row); err != nil {
			return 0, err
		}
		i := t.RouteOf(row)
		parts[i] = append(parts[i], row)
	}
	var acked atomic.Int64
	_, err := shard.Fanout(ctx, len(parts), func(ctx context.Context, i int) (struct{}, error) {
		if len(parts[i]) == 0 {
			return struct{}{}, nil
		}
		n, err := t.insertOn(ctx, i, parts[i])
		acked.Add(int64(n))
		return struct{}{}, err
	})
	return int(acked.Load()), err
}

func (t *ShardedTable) checkArity(row Row) error {
	if len(row) != len(t.cols) {
		return fmt.Errorf("%w: row has %d values, table %q has %d columns",
			ErrBadQuery, len(row), t.name, len(t.cols))
	}
	return nil
}

// insertOn appends rows to shard i, counting them in the shard telemetry.
func (t *ShardedTable) insertOn(ctx context.Context, i int, rows []Row) (int, error) {
	n, err := t.co.legs[i].Insert(ctx, t.name, rows)
	if err != nil {
		t.co.tel.FanoutError(i)
		return n, err
	}
	t.co.tel.AddInserts(i, int64(n))
	return n, nil
}

// Estimate answers a group-by estimate across the shards — scatter the
// partials scan, merge, then take the confidence interval once. The
// arguments mean what they do for Warehouse.Estimate.
func (co *Coordinator) Estimate(table string, grouping []string, agg Aggregate, aggCol string, confidence float64) ([]GroupEstimate, error) {
	ests, _, err := co.EstimateQueryOpts(context.Background(), table, grouping, agg, aggCol, confidence, ApproxOptions{})
	return ests, err
}

// EstimateQueryOpts is Estimate under a context, with options; only
// NoHybrid applies. Merged answers always bypass the result cache — one
// spans every shard's data epoch at once — so the status is always
// CacheBypass.
func (co *Coordinator) EstimateQueryOpts(ctx context.Context, table string, grouping []string, agg Aggregate, aggCol string, confidence float64, opts ApproxOptions) ([]GroupEstimate, CacheStatus, error) {
	merged, err := co.EstimatePartialsOpts(ctx, table, grouping, aggCol, PartialsOptions{NoHybrid: opts.NoHybrid})
	if err != nil {
		return nil, CacheBypass, err
	}
	ests, err := estimate.Finalize(merged, agg, confidence)
	return ests, CacheBypass, err
}

// EstimatePartialsOpts scatter-gathers the partials scan across the
// shards and merges, without taking confidence intervals — the contract
// of Warehouse.EstimatePartialsOpts, so a coordinator can itself serve
// /v1/estimate/partials to a higher-tier coordinator. NoHybrid is
// forwarded to every shard, so the fan-out answers either hybrid (each
// covered shard exactly) or pure-sample. Legs observe ctx: the first
// failing shard cancels its siblings, and per-shard leg latency lands in
// ShardTelemetry.
func (co *Coordinator) EstimatePartialsOpts(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error) {
	parts, err := scatter(ctx, co, table, func(ctx context.Context, i int) ([]GroupPartial, error) {
		start := time.Now()
		p, err := co.legs[i].EstimatePartials(ctx, table, grouping, aggCol, opts)
		switch {
		case err == nil:
			co.tel.ObserveFanout(i, time.Since(start))
		case !errors.Is(err, ErrNoSynopsis):
			co.tel.FanoutError(i)
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	merged := estimate.MergePartials(parts...)
	if !opts.NoHybrid && hasResidualMix(merged) {
		co.mtel.HybridResidual()
	}
	return merged, nil
}

// Metrics reports the coordinator's own engine counters (the hybrid
// composition counter). Shard-process engine telemetry lives on the
// shards' own /metrics endpoints; ShardedWarehouse.Metrics adds its
// in-process shards'.
func (co *Coordinator) Metrics() MetricsSnapshot { return co.mtel.Snapshot() }

// hasResidualMix reports whether merged partials compose exact mass
// (covered shards answered from their datacubes) with sampled mass
// (uncovered shards answered from their samples) — the hybrid residual
// case a coordinator counts once per query.
func hasResidualMix(parts []estimate.GroupPartial) bool {
	exact, sampled := false, false
	for _, p := range parts {
		if p.ExactCount > 0 || p.ExactSum != 0 {
			exact = true
		}
		if p.N > 0 {
			sampled = true
		}
		if exact && sampled {
			return true
		}
	}
	return false
}

// RefreshSynopsis re-materializes the table's sample on every shard
// holding a partition, in parallel. Shards without the synopsis are
// skipped; if no shard has it, the error wraps ErrNoSynopsis.
func (co *Coordinator) RefreshSynopsis(table string) error {
	_, err := scatter(context.Background(), co, table, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, co.legs[i].Refresh(ctx, table)
	})
	return err
}

// Synopses lists every synopsis merged across the shards (sizes, strata
// and pending counts sum; Shards counts partitions), sorted by table
// name. Shards that fail the listing are omitted — the listing is
// diagnostic, not transactional.
func (co *Coordinator) Synopses() []SynopsisInfo {
	ctx, cancel := context.WithTimeout(context.Background(), co.opts.LegTimeout)
	defer cancel()
	lists, _ := shard.Fanout(ctx, len(co.legs), func(ctx context.Context, i int) ([]SynopsisInfo, error) {
		list, _ := co.legs[i].Synopses(ctx) // a failing shard is omitted
		return list, nil
	})
	byTable := make(map[string]*SynopsisInfo)
	for _, list := range lists {
		for _, info := range list {
			m := byTable[info.Table]
			if m == nil {
				cp := info
				cp.Shards = 1
				byTable[info.Table] = &cp
				continue
			}
			m.Space += info.Space
			m.SampleSize += info.SampleSize
			m.Strata += info.Strata
			m.PendingInserts += info.PendingInserts
			m.Shards++
		}
	}
	out := make([]SynopsisInfo, 0, len(byTable))
	for _, info := range byTable {
		out = append(out, *info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Table < out[b].Table })
	return out
}

// AllocationTable concatenates the per-shard allocation tables and
// re-sorts by descending target allocation (ties broken by rendered
// group, so the listing is deterministic). If no shard holds a synopsis
// for the table, the error wraps ErrNoSynopsis.
func (co *Coordinator) AllocationTable(table string) ([]AllocationRow, error) {
	lists, err := scatter(context.Background(), co, table, func(ctx context.Context, i int) ([]AllocationRow, error) {
		return co.legs[i].AllocationTable(ctx, table)
	})
	if err != nil {
		return nil, err
	}
	var out []AllocationRow
	for _, rows := range lists {
		out = append(out, rows...)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Target != out[b].Target {
			return out[a].Target > out[b].Target
		}
		return strings.Join(out[a].Group, "\x1f") < strings.Join(out[b].Group, "\x1f")
	})
	return out, nil
}

// wireRow converts engine values to their JSON-native wire form (the
// inverse of the server's per-column decode): numbers stay numbers,
// strings and dates render as display text.
func wireRow(row Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.K {
		case engine.KindNull:
			out[i] = nil
		case engine.KindBool:
			out[i] = v.I != 0
		case engine.KindInt:
			out[i] = v.I
		case engine.KindFloat:
			out[i] = v.F
		default:
			out[i] = v.String()
		}
	}
	return out
}
