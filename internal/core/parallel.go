package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// DefaultWorkers returns the worker count used when a caller asks for
// parallel construction without choosing one: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// workerSeed derives a per-worker RNG seed from the base seed. The
// mixing constants are from SplitMix64; the point is only that distinct
// (seed, worker) pairs map to well-spread, deterministic seeds.
func workerSeed(seed int64, worker int) int64 {
	z := uint64(seed) + uint64(worker+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// shardBounds splits n items into at most workers contiguous chunks,
// returning the half-open [start, end) bounds of each non-empty chunk.
func shardBounds(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	out := make([][2]int, 0, workers)
	for w := 0; w < workers; w++ {
		start := n * w / workers
		end := n * (w + 1) / workers
		if start < end {
			out = append(out, [2]int{start, end})
		}
	}
	return out
}

// BuildCubeParallel is BuildCube with the relation scan sharded across
// the given number of workers: each worker builds a partial cube over a
// contiguous chunk of the relation and the partials are merged. Counts
// are additive, so the result is identical to the sequential BuildCube.
// workers <= 1 falls back to the sequential scan.
func BuildCubeParallel(rel *engine.Relation, g *Grouping, workers int) (*datacube.Cube, error) {
	if workers <= 1 {
		return BuildCube(rel, g)
	}
	rows := rel.Rows()
	shards := shardBounds(len(rows), workers)
	if len(shards) <= 1 {
		return BuildCube(rel, g)
	}

	partials := make([]*datacube.Cube, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for w, bounds := range shards {
		wg.Add(1)
		go func(w int, start, end int) {
			defer wg.Done()
			cube, err := datacube.New(g.Attrs)
			if err != nil {
				errs[w] = err
				return
			}
			var key []byte
			for _, row := range rows[start:end] {
				key = g.AppendKey(key[:0], row)
				cube.AddSlot(g.slot(cube, row, key), 1)
			}
			partials[w] = cube
		}(w, bounds[0], bounds[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cube := partials[0]
	for _, p := range partials[1:] {
		if err := cube.Merge(p); err != nil {
			return nil, err
		}
	}
	return cube, nil
}

// workerStratum is one worker's view of one finest group: a uniform
// reservoir sample of the group tuples inside the worker's shard, plus
// how many such tuples the shard contained.
type workerStratum struct {
	items []engine.Row
	seen  int64
}

// MaterializeParallel is Materialize with the base-relation scan sharded
// across workers. Each worker runs independent per-group reservoirs over
// its contiguous chunk (at the full per-group target capacity, so every
// worker sample is a valid uniform sample of its chunk's group members),
// and the per-worker reservoirs are merged with a weighted reservoir
// union: the number of tuples taken from each worker follows the
// multivariate hypergeometric law on the workers' group populations,
// which makes the merged sample a uniform without-replacement sample of
// the whole group — the same distribution the sequential scan produces.
//
// The result is deterministic for a fixed (seed, workers) pair: worker
// RNGs are derived from the seed and the worker ordinal, shards are
// contiguous row ranges, and the merge iterates groups in sorted key
// order. Different worker counts produce different (but equally valid)
// samples. workers <= 1 reproduces the sequential Materialize exactly.
func MaterializeParallel(rel *engine.Relation, g *Grouping, cube *datacube.Cube, alloc *Allocation, seed int64, workers int) (*sample.Stratified[engine.Row], error) {
	if seed == 0 {
		seed = 1
	}
	if workers <= 1 {
		return Materialize(rel, g, cube, alloc, rand.New(rand.NewSource(seed)))
	}
	rows := rel.Rows()
	shards := shardBounds(len(rows), workers)
	if len(shards) <= 1 {
		return Materialize(rel, g, cube, alloc, rand.New(rand.NewSource(seed)))
	}

	populations := make(map[string]int64)
	cube.FinestGroups(func(key string, n int64) { populations[key] = n })
	targets := alloc.IntegerTargets(populations)

	// Per-worker scan: one reservoir per targeted group, capacity equal
	// to the full group target so the shard sample never under-covers
	// the merge's demand (the merge draws at most min(target, seen_w)
	// tuples from worker w).
	perWorker := make([]map[string]*workerStratum, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for w, bounds := range shards {
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed(seed, w)))
			reservoirs := make(map[string]*sample.Reservoir[engine.Row])
			var key []byte
			for _, row := range rows[start:end] {
				key = g.AppendKey(key[:0], row)
				size, ok := targets[string(key)]
				if !ok || size <= 0 {
					continue
				}
				r := reservoirs[string(key)]
				if r == nil {
					var err error
					r, err = sample.NewReservoir[engine.Row](size, rng)
					if err != nil {
						errs[w] = err
						return
					}
					reservoirs[string(key)] = r
				}
				r.Offer(row)
			}
			out := make(map[string]*workerStratum, len(reservoirs))
			for key, r := range reservoirs {
				out[key] = &workerStratum{items: r.Items(), seen: r.Seen()}
			}
			perWorker[w] = out
		}(w, bounds[0], bounds[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	mergeRng := rand.New(rand.NewSource(workerSeed(seed, -2)))
	st := sample.NewStratified[engine.Row]()
	keys := make([]string, 0, len(populations))
	for key := range populations {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		stratum := &sample.Stratum[engine.Row]{Key: key, Population: populations[key]}
		if size := targets[key]; size > 0 {
			items, err := mergeWorkerStrata(key, perWorker, size, mergeRng)
			if err != nil {
				return nil, err
			}
			stratum.Items = items
		}
		st.Put(stratum)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// mergeWorkerStrata draws a uniform sample of up to target tuples for
// one group from the per-worker reservoir samples. The per-worker draw
// counts follow the multivariate hypergeometric distribution over the
// workers' group populations (sampled by sequential
// proportional-to-remaining selection), and each worker contributes that
// many distinct tuples chosen uniformly from its reservoir.
func mergeWorkerStrata(key string, perWorker []map[string]*workerStratum, target int, rng *rand.Rand) ([]engine.Row, error) {
	var parts []*workerStratum
	var total int64
	for _, m := range perWorker {
		if ws, ok := m[key]; ok {
			parts = append(parts, ws)
			total += ws.seen
		}
	}
	if len(parts) == 0 {
		return nil, nil
	}
	draw := int64(target)
	if draw > total {
		draw = total
	}

	remaining := make([]int64, len(parts))
	for i, ws := range parts {
		remaining[i] = ws.seen
	}
	counts := make([]int64, len(parts))
	left := total
	for d := int64(0); d < draw; d++ {
		pick := rng.Int63n(left)
		for i := range remaining {
			if pick < remaining[i] {
				counts[i]++
				remaining[i]--
				break
			}
			pick -= remaining[i]
		}
		left--
	}

	out := make([]engine.Row, 0, draw)
	for i, ws := range parts {
		k := int(counts[i])
		if k == 0 {
			continue
		}
		if k > len(ws.items) {
			// Cannot happen: the reservoir holds min(target, seen)
			// items and the hypergeometric draw allots at most that.
			return nil, fmt.Errorf("core: merge of group %q demands %d tuples from a worker sample of %d", key, k, len(ws.items))
		}
		for _, idx := range sample.SampleWithoutReplacement(len(ws.items), k, rng) {
			out = append(out, ws.items[idx])
		}
	}
	return out, nil
}

// BuildParallel is Build with both passes parallelized: the data-cube
// pre-scan and the reservoir materialization are each sharded across the
// given number of workers. Deterministic for a fixed (seed, workers).
func BuildParallel(rel *engine.Relation, g *Grouping, strategy Strategy, x int, seed int64, workers int) (*sample.Stratified[engine.Row], *Allocation, error) {
	cube, err := BuildCubeParallel(rel, g, workers)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := Allocate(strategy, cube, x)
	if err != nil {
		return nil, nil, err
	}
	st, err := MaterializeParallel(rel, g, cube, alloc, seed, workers)
	if err != nil {
		return nil, nil, err
	}
	return st, alloc, nil
}
