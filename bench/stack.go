package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/repl"
	"github.com/approxdb/congress/internal/server"
	"github.com/approxdb/congress/pkg/client"
)

// fsyncPolicy is the durable leader's WAL policy: fsync before every
// acknowledgement, the default and the promise an ack makes.
const fsyncPolicy = congress.FsyncAlways

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// stack is one running deployment of the system under test. Fields not
// used by a workload stay nil.
type stack struct {
	c     *client.Client // the front server every request goes to
	front *server.Server
	w     *congress.Warehouse // the front warehouse (nil behind a coordinator)

	// ingest_durable: the leader's data directory and its follower.
	dataDir  string
	follower *repl.Follower
	fw       *congress.Warehouse

	// scatter_gather: shard warehouses and servers, and the coordinator.
	shards    []*congress.Warehouse
	shardSrvs []*server.Server
	co        *congress.Coordinator

	gen0, snaps0 int64 // leader generation and snapshot count after set-up

	setupS      float64 // attach + build + servers ready (+ follower, shards)
	buildS      float64 // BuildSynopsis wall time (summed over shards)
	buildAllocs float64 // heap allocations of BuildSynopsis
}

// newClient returns a client limited to senders connections.
func newClient(url string) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}))
}

// timedBuild runs BuildSynopsis and records its time and allocations.
func (st *stack) timedBuild(w *congress.Warehouse, spec congress.SynopsisSpec) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := w.BuildSynopsis(spec)
	st.buildS += time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	st.buildAllocs += float64(m1.Mallocs - m0.Mallocs)
	return err
}

func (st *stack) serve(opts server.Options) error {
	opts.Logger = quiet
	st.front = server.New(opts)
	addr, err := st.front.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	st.c = newClient("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return st.c.Health(ctx)
}

// setupInMemory is olap_read's deployment: one in-memory warehouse
// behind internal/server.
func setupInMemory(d *dataset, _ string, _ int) (*stack, error) {
	rel, err := d.relation(d.base)
	if err != nil {
		return nil, err
	}
	st := &stack{}
	t0 := time.Now()
	st.w = congress.Open()
	if _, err := st.w.AttachRelation(rel); err != nil {
		return nil, err
	}
	if err := st.timedBuild(st.w, d.spec(len(d.base))); err != nil {
		return nil, err
	}
	if err := st.serve(server.Options{Warehouse: st.w}); err != nil {
		st.close()
		return nil, err
	}
	st.setupS = time.Since(t0).Seconds()
	return st, nil
}

// snapshotEvery is the durable leader's background-snapshot trigger in
// inserted rows. An untraced run inserts about 4,000 rows, so it runs
// between snapshots and its latencies are steady; the traced run's
// ladder and traced pass insert several times more, so several
// snapshots complete there (persist.snapshot.*).
const snapshotEvery = 5000

// setupDurable is ingest_durable's deployment: a durable leader
// (OpenDir, fsync always) serving the replication API, and one
// in-process follower tailing it over loopback.
func setupDurable(d *dataset, dir string, i int) (*stack, error) {
	rel, err := d.relation(d.base)
	if err != nil {
		return nil, err
	}
	st := &stack{dataDir: filepath.Join(dir, fmt.Sprintf("leader%d", i))}
	t0 := time.Now()
	st.w, _, err = congress.OpenDir(st.dataDir, congress.PersistOptions{
		Fsync: fsyncPolicy, SnapshotInterval: -1, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	if _, err := st.w.AttachRelation(rel); err != nil {
		st.close()
		return nil, err
	}
	if err := st.timedBuild(st.w, d.spec(len(d.base))); err != nil {
		st.close()
		return nil, err
	}
	// The attached table is durable only once snapshotted (congressd
	// serve does the same).
	if err := st.w.TriggerSnapshot(); err != nil {
		st.close()
		return nil, err
	}
	ps, _ := st.w.PersistStats()
	st.gen0, st.snaps0 = int64(ps.Generation), st.w.Metrics().Snapshots.Count
	leader := repl.NewLeader(st.w.PersistManager(), repl.LeaderOptions{Logger: quiet})
	if err := st.serve(server.Options{Warehouse: st.w, ReplLeader: leader}); err != nil {
		st.close()
		return nil, err
	}
	st.fw = congress.Open()
	st.follower, err = repl.NewFollower(repl.FollowerOptions{
		Leader: st.c.BaseURL(), Dir: filepath.Join(dir, fmt.Sprintf("follower%d", i)),
		Target: st.fw, ID: "bench-follower", Logger: quiet,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	if err := st.follower.Start(); err != nil {
		st.follower = nil
		st.close()
		return nil, err
	}
	if err := st.waitFollower(30 * time.Second); err != nil {
		st.close()
		return nil, err
	}
	st.setupS = time.Since(t0).Seconds()
	return st, nil
}

// followerHas reports whether the follower has applied the
// leader's log up to (gen, seq).
func followerHas(s repl.Status, gen uint64, seq int64) bool {
	return s.Gen > gen || (s.Gen == gen && s.SegmentRecords >= seq)
}

// waitFollower waits until the follower has applied everything the
// leader has logged.
func (st *stack) waitFollower(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ps, _ := st.w.PersistStats()
		if followerHas(st.follower.Status(), ps.Generation, ps.RecordSeq) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up after %v: %+v", timeout, st.follower.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// setupSharded is scatter_gather's deployment: four shard servers, each
// holding one partition with its own 7% synopsis (as congressd
// -shard-index builds it), fronted by a Coordinator behind
// internal/server.
func setupSharded(d *dataset, _ string, _ int) (*stack, error) {
	rels := make([]*engine.Relation, numShards)
	for i := range rels {
		rel, err := d.relation(d.parts[i])
		if err != nil {
			return nil, err
		}
		rels[i] = rel
	}
	st := &stack{}
	t0 := time.Now()
	endpoints := make([]string, numShards)
	for i := 0; i < numShards; i++ {
		w := congress.Open()
		st.shards = append(st.shards, w)
		if _, err := w.AttachRelation(rels[i]); err != nil {
			st.close()
			return nil, err
		}
		if err := st.timedBuild(w, d.spec(len(d.parts[i]))); err != nil {
			st.close()
			return nil, err
		}
		s := server.New(server.Options{Warehouse: w, Logger: quiet})
		st.shardSrvs = append(st.shardSrvs, s)
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		endpoints[i] = "http://" + addr
	}
	co, err := congress.NewCoordinator(endpoints, congress.CoordinatorOptions{LegTimeout: 10 * time.Second})
	if err != nil {
		st.close()
		return nil, err
	}
	st.co = co
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := co.WaitHealthy(ctx, 5*time.Millisecond); err != nil {
		st.close()
		return nil, err
	}
	if err := co.Discover(ctx); err != nil {
		st.close()
		return nil, err
	}
	if err := st.serve(server.Options{Coordinator: co}); err != nil {
		st.close()
		return nil, err
	}
	st.setupS = time.Since(t0).Seconds()
	return st, nil
}

// stopServing shuts the servers and the follower down, leaving the
// warehouses open for inspection.
func (st *stack) stopServing() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.follower != nil {
		st.follower.Close()
		st.follower = nil
	}
	if st.front != nil {
		st.front.Shutdown(ctx)
		st.front = nil
	}
	for _, s := range st.shardSrvs {
		s.Shutdown(ctx)
	}
	st.shardSrvs = nil
}

// close stops everything the stack started and releases its memory.
func (st *stack) close() {
	st.stopServing()
	if st.w != nil {
		st.w.Close()
		st.w = nil
	}
	if st.dataDir != "" {
		os.RemoveAll(st.dataDir)
	}
	st.fw, st.shards, st.co = nil, nil, nil
}
