package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opQuery opKind = iota
	opInsert
)

// op is one request of a workload. run performs it through pkg/client
// and returns the server's own execution time (elapsed_ms) when the
// response carries one.
type op struct {
	kind  opKind
	class string
	rows  int // rows an insert carries
	run   func(ctx context.Context, reqID int64) (serverMS float64, err error)
	// after runs once the op has been acknowledged, outside the timed
	// interval (bookkeeping such as recording acknowledged rows).
	after func()
}

// sample is the outcome of one op. Times are offsets from the start of
// the phase; due is the op's slot in the fixed arrival schedule.
type sample struct {
	kind       opKind
	class      string
	rows       int
	due        time.Duration
	start, end time.Duration
	// late is how far past due the generator itself started the op
	// while a sender was idle and waiting for it; -1 when every sender
	// was busy at the due time (that wait is the system's backlog, not
	// generator lateness).
	late     time.Duration
	serverMS float64
	failed   bool // errored, timed out or shed (429)
}

// senders is the number of sender goroutines and connections: the
// host's core count (2), so the generator never needs more cores than
// the system under test gets.
const senders = 2

// openLoop sends ops open-loop on a fixed schedule: op i is due at
// i/rate after the phase starts, whether or not earlier ops have
// finished. At most senders ops are in flight; an op whose due time
// passes while both senders are busy waits, and that wait counts in
// its latency because latency is measured from the due time.
func openLoop(ops []op, rate float64, timeout time.Duration) []sample {
	out := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				late := time.Duration(-1)
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
					late = time.Since(t0) - due
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				start := time.Since(t0)
				serverMS, err := ops[i].run(ctx, i)
				end := time.Since(t0)
				cancel()
				if err == nil && ops[i].after != nil {
					ops[i].after()
				}
				out[i] = sample{
					kind: ops[i].kind, class: ops[i].class, rows: ops[i].rows,
					due: due, start: start, end: end, late: late,
					serverMS: serverMS, failed: err != nil,
				}
				if err != nil {
					lastErr.Store(err.Error())
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// lastErr keeps the most recent op error for the run log.
var lastErr atomic.Value

// stepResult is one rung of the SLO ladder.
type stepResult struct {
	rate      float64
	missShare float64
	backlogMS float64
	pass      bool
}

// judgeStep applies the SLO to one ladder step: the p99 of every op
// (queries and inserts) is within limitMS — at most 1% of the step's
// ops miss the limit, a failed op counting as a miss — and the backlog
// did not grow: the last op started within limitMS of its due time.
// Counting misses keeps the test exact for steps too short to report a
// p99 under the percentile rule.
func judgeStep(rate float64, s []sample, limitMS float64) stepResult {
	r := stepResult{rate: rate}
	if len(s) == 0 {
		return r
	}
	misses := 0
	for _, x := range latencies(s, nil) {
		if x > limitMS {
			misses++
		}
	}
	r.missShare = float64(misses) / float64(len(s))
	last := s[len(s)-1]
	r.backlogMS = ms(last.start - last.due)
	r.pass = misses <= len(s)/100 && r.backlogMS <= limitMS
	return r
}

// sloSearch finds the highest rate on the fixed ladder whose step meets
// the SLO, by bisection over the ladder (the SLO is monotone in rate).
// step runs one step at the given rate and returns its samples. The
// result is 0 only when even the lowest rung fails.
func sloSearch(ladder []float64, limitMS float64, step func(rate float64) []sample) (float64, []stepResult) {
	lo, hi := -1, len(ladder)
	var steps []stepResult
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := judgeStep(ladder[mid], step(ladder[mid]), limitMS)
		steps = append(steps, r)
		if r.pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, steps
	}
	return ladder[lo], steps
}

// genLateP99 is the generator's own lateness: how far past due it
// started ops it was idle and waiting for.
func genLateP99(s []sample) float64 {
	var v []float64
	for _, x := range s {
		if x.late >= 0 {
			v = append(v, ms(x.late))
		}
	}
	return quantile(v, 0.99)
}

// quantile is a nearest-rank quantile without the sample-size rule, for
// per-layer figures that carry no bound.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q, _ := percentile(s, p)
	if math.IsNaN(q) {
		return 0
	}
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
