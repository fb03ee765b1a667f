package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"

	"github.com/approxdb/congress/internal/engine"
	paper "github.com/approxdb/congress/internal/workload"
	"github.com/approxdb/congress/pkg/client"
)

// workload is one traffic mix with its deployment and load shape. Why
// each workload was chosen is stated once, in BENCHMARK.json.
type workload struct {
	// setup starts one deployment; i numbers the repeats within a run.
	setup func(d *dataset, dir string, i int) (*stack, error)
	// next draws the workload's next request.
	next func(rng *rand.Rand, st *stack, d *dataset, in *inputs) op
	// nominalRPS is the fixed rate the latency metrics are measured at.
	nominalRPS float64
	// ladder is the fixed set of rates the SLO search tries, ascending.
	ladder []float64
	// limitMS is the p99 latency limit of the SLO.
	limitMS float64
}

var workloads = map[string]*workload{
	"olap_read": {
		setup:      setupInMemory,
		next:       nextOLAP,
		nominalRPS: 150,
		ladder:     geometric(150, 1.1, 16),
		limitMS:    100,
	},
	"ingest_durable": {
		setup:      setupDurable,
		next:       nextIngest,
		nominalRPS: 150,
		ladder:     geometric(150, 1.1, 24),
		limitMS:    150,
	},
	"scatter_gather": {
		setup: setupSharded,
		next:  nextScatter,
		// An estimate here costs ~10 ms of CPU across five servers, so
		// the nominal rate stays near a quarter of capacity, where host
		// stalls do not snowball into queueing.
		nominalRPS: 32,
		ladder:     geometric(48, 1.1, 16),
		limitMS:    200,
	},
}

// geometric returns n rates starting at first, each ratio times the
// previous, rounded to whole requests per second.
func geometric(first, ratio float64, n int) []float64 {
	out := make([]float64, n)
	r := first
	for i := range out {
		out[i] = float64(int(r + 0.5))
		r *= ratio
	}
	return out
}

// inputs records the requests a run sent, for the traced run's layer
// replays and the SQL repeat share.
type inputs struct {
	mu        sync.Mutex
	sql       []string
	sqlSeen   map[string]bool
	sqlRepeat int
	estimates []client.EstimateRequest
	noHybrid  []bool
	inserts   [][]engine.Row
	responses []*client.QueryResponse // kept only while tracing
	keepResp  bool
	decks     *mixDecks
}

// mix returns the run's decks, dealing request classes by the
// workload's weights.
func (in *inputs) mix(classWeights ...int) *mixDecks {
	if in.decks == nil {
		in.decks = newMixDecks(classWeights...)
	}
	return in.decks
}

func newInputs() *inputs { return &inputs{sqlSeen: make(map[string]bool)} }

// maxReplay caps how many of each recorded input the replays use.
const maxReplay = 300

func (in *inputs) noteQuery(req client.QueryRequest) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if req.SQL != "" {
		if in.sqlSeen[req.SQL] {
			in.sqlRepeat++
		}
		in.sqlSeen[req.SQL] = true
		if len(in.sql) < maxReplay {
			in.sql = append(in.sql, req.SQL)
		}
	} else if len(in.estimates) < maxReplay {
		in.estimates = append(in.estimates, *req.Estimate)
		in.noHybrid = append(in.noHybrid, req.NoHybrid)
	}
}

func (in *inputs) noteResponse(r *client.QueryResponse) {
	in.mu.Lock()
	if in.keepResp && len(in.responses) < maxReplay {
		in.responses = append(in.responses, r)
	}
	in.mu.Unlock()
}

func (in *inputs) noteInsert(rows []engine.Row) {
	in.mu.Lock()
	if len(in.inserts) < maxReplay {
		in.inserts = append(in.inserts, rows)
	}
	in.mu.Unlock()
}

func (in *inputs) sqlRepeatShare() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	total := in.sqlRepeat + len(in.sqlSeen)
	if total == 0 {
		return 0
	}
	return float64(in.sqlRepeat) / float64(total)
}

// sqlDistinct is the number of distinct SQL texts the run sent: the
// result cache's working set.
func (in *inputs) sqlDistinct() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return float64(len(in.sqlSeen))
}

func queryOp(c *client.Client, in *inputs, class string, req client.QueryRequest) op {
	in.noteQuery(req)
	return op{kind: opQuery, class: class, run: func(ctx context.Context, _ int64) (float64, error) {
		resp, err := c.Query(ctx, req)
		if err != nil {
			return 0, err
		}
		in.noteResponse(resp)
		return resp.ElapsedMS, nil
	}}
}

func insertOp(st *stack, d *dataset, in *inputs, rows []engine.Row) op {
	in.noteInsert(rows)
	wire := make([][]any, len(rows))
	for i, r := range rows {
		wire[i] = wireRow(r)
	}
	req := client.InsertRequest{Table: table, Rows: wire}
	return op{kind: opInsert, class: "insert", rows: len(rows),
		run: func(ctx context.Context, _ int64) (float64, error) {
			resp, err := st.c.Insert(ctx, req)
			if err != nil {
				return 0, err
			}
			if resp.Inserted != len(rows) {
				return 0, errShortInsert
			}
			return 0, nil
		},
		after: func() { d.ack(rows) },
	}
}

var aggs = []string{"sum", "count", "avg"}
var measureCols = []string{"l_quantity", "l_extendedprice"}

// subsetOf returns the grouping T ⊆ G selected by the bit mask. The
// estimate API needs at least one grouping attribute, so masks start at
// 1: the seven non-empty groupings of G.
func subsetOf(mask int) []string {
	var t []string
	for i, c := range groupCols {
		if mask&(1<<i) != 0 {
			t = append(t, c)
		}
	}
	return t
}

// deck deals indices in exact proportions: each round is a shuffled
// copy of the weighted list, so every run sends the same request mix
// and the seed decides only the order and the free parameters. This
// keeps the mix out of the run-to-run spread.
type deck struct{ cards, hand []int }

func newDeck(weights ...int) *deck {
	d := &deck{}
	for i, w := range weights {
		for ; w > 0; w-- {
			d.cards = append(d.cards, i)
		}
	}
	return d
}

func (d *deck) draw(rng *rand.Rand) int {
	if len(d.hand) == 0 {
		d.hand = append(d.hand[:0], d.cards...)
		rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	c := d.hand[len(d.hand)-1]
	d.hand = d.hand[:len(d.hand)-1]
	return c
}

// mixDecks are one run's decks.
type mixDecks struct {
	class, grouping, hybrid, qg, batch *deck
}

func newMixDecks(classWeights ...int) *mixDecks {
	return &mixDecks{
		class:    newDeck(classWeights...),
		grouping: newDeck(1, 1, 1, 1, 1, 1, 1),
		hybrid:   newDeck(1, 1),
		qg:       newDeck(1, 1),
		batch:    newDeck(17, 3),
	}
}

// estimate draws a direct estimate over the next grouping T ⊆ G.
func (m *mixDecks) estimate(rng *rand.Rand) *client.EstimateRequest {
	return &client.EstimateRequest{
		Table:   table,
		GroupBy: subsetOf(1 + m.grouping.draw(rng)),
		Agg:     aggs[rng.Intn(len(aggs))],
		Column:  measureCols[rng.Intn(len(measureCols))],
	}
}

// insertRows draws one insert request's rows: 85% single rows, 15%
// batches of 2 to 16.
func (m *mixDecks) insertRows(rng *rand.Rand, d *dataset) []engine.Row {
	n := 1
	if m.batch.draw(rng) == 1 {
		n = 2 + rng.Intn(15)
	}
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = d.newRow(rng)
	}
	return rows
}

// dashboard is olap_read's hot set: a few fixed requests repeated by
// every analyst, the only requests the result cache can answer.
var dashboard = []client.QueryRequest{
	{SQL: "select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag"},
	{SQL: "select l_linestatus, sum(l_extendedprice) from lineitem group by l_linestatus"},
	{SQL: "select l_returnflag, l_linestatus, count(*) from lineitem group by l_returnflag, l_linestatus"},
	{SQL: "select sum(l_extendedprice) from lineitem"},
	{Estimate: &client.EstimateRequest{Table: table, GroupBy: []string{"l_returnflag"}, Agg: "sum", Column: "l_quantity"}},
	{Estimate: &client.EstimateRequest{Table: table, GroupBy: []string{"l_shipdate"}, Agg: "avg", Column: "l_extendedprice"}},
	{Estimate: &client.EstimateRequest{Table: table, GroupBy: []string{"l_returnflag", "l_linestatus"}, Agg: "count", Column: "l_quantity"}},
	{Estimate: &client.EstimateRequest{Table: table, GroupBy: groupCols, Agg: "sum", Column: "l_extendedprice"}},
}

// nextOLAP: 30% approximate Qg2/Qg3 (result cache bypassed, so they run
// through rewrite and the engine), 20% Qg0 over a fresh random l_id
// range (every cache misses), 30% direct estimates over T ⊆ G (cache
// bypassed, half of them pure-sample), 20% the dashboard hot set
// (cached).
func nextOLAP(rng *rand.Rand, st *stack, _ *dataset, in *inputs) op {
	m := in.mix(3, 2, 3, 2)
	switch m.class.draw(rng) {
	case 0:
		q := paper.Qg2
		if m.qg.draw(rng) == 1 {
			q = paper.Qg3
		}
		return queryOp(st.c, in, "sql", client.QueryRequest{SQL: q, NoCache: true})
	case 1:
		width := int64(baseRows * 0.07)
		s := rng.Int63n(baseRows - width)
		return queryOp(st.c, in, "qg0", client.QueryRequest{SQL: paper.Qg0(s, width)})
	case 2:
		return queryOp(st.c, in, "estimate", client.QueryRequest{
			Estimate: m.estimate(rng), NoCache: true, NoHybrid: m.hybrid.draw(rng) == 1,
		})
	default:
		return queryOp(st.c, in, "dashboard", dashboard[rng.Intn(len(dashboard))])
	}
}

// nextIngest: 80% inserts, 20% reads — hybrid-covered estimates (12%)
// and approximate Qg2 (8%), both through the result cache, which every
// insert invalidates.
func nextIngest(rng *rand.Rand, st *stack, d *dataset, in *inputs) op {
	m := in.mix(20, 3, 2)
	switch m.class.draw(rng) {
	case 0:
		return insertOp(st, d, in, m.insertRows(rng, d))
	case 1:
		return queryOp(st.c, in, "estimate", client.QueryRequest{Estimate: m.estimate(rng)})
	default:
		return queryOp(st.c, in, "sql", client.QueryRequest{SQL: paper.Qg2})
	}
}

// nextScatter: 90% direct estimates at each grouping of G in turn through
// the coordinator — half pure-sample so every shard scans its partials,
// half exact from the shards' cubes (pure fan-out, wire and merge) — and
// 10% inserts the coordinator routes to one shard.
func nextScatter(rng *rand.Rand, st *stack, d *dataset, in *inputs) op {
	m := in.mix(9, 1)
	if m.class.draw(rng) == 1 {
		return insertOp(st, d, in, m.insertRows(rng, d))
	}
	return queryOp(st.c, in, "estimate", client.QueryRequest{
		Estimate: m.estimate(rng), NoCache: true, NoHybrid: m.hybrid.draw(rng) == 1,
	})
}

var errShortInsert = errors.New("server acknowledged fewer rows than sent")
