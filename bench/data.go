package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/shard"
	"github.com/approxdb/congress/internal/tpcd"
)

// Base data shared by every workload: the paper's TPC-D lineitem at the
// ROADMAP harness shape.
const (
	baseRows   = 200_000
	numGroups  = 1000
	groupSkew  = 0.86
	spacePct   = 7.0
	numShards  = 4
	table      = "lineitem"
	confidence = 0.95
)

// Column ordinals of tpcd.Schema.
const (
	colID = iota
	colFlag
	colStatus
	colDate
	colQty
	colPrice
)

// groupCols is G, the synopsis grouping.
var groupCols = tpcd.GroupingAttrs

// newGroupShare is the share of inserted rows that carry a ship date
// outside the base data, creating a new group.
const newGroupShare = 0.02

// dataset is the generated base table plus the generator for inserted
// rows. Only generated rows and requests reach the program; the seed
// stays in the harness.
type dataset struct {
	seed     int64
	schema   *engine.Schema
	base     []engine.Row
	parts    [][]engine.Row // base rows per shard, cut by the coordinator's router
	newDates []engine.Value

	mu     sync.Mutex
	nextID int64
	acked  []engine.Row // inserted rows the program acknowledged
}

func genData(seed int64) (*dataset, error) {
	rel, err := tpcd.Generate(tpcd.Params{
		TableSize: baseRows, NumGroups: numGroups, GroupSkew: groupSkew, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	d := &dataset{seed: seed, schema: rel.Schema, base: rel.Rows(), nextID: baseRows + 1}
	// A few new ship dates, after the generator's 1992-1998 window.
	first := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400
	for i := int64(0); i < 4; i++ {
		d.newDates = append(d.newDates, engine.NewDate(first+i*31))
	}
	return d, nil
}

// partition cuts the base rows across numShards with the same hash
// router congressd -shard-index uses, keyed by the finest grouping key,
// so every stratum lives whole on one shard.
func (d *dataset) partition() error {
	g, err := core.NewGrouping(d.schema, groupCols)
	if err != nil {
		return err
	}
	router, err := shard.NewRouter(numShards)
	if err != nil {
		return err
	}
	d.parts = make([][]engine.Row, numShards)
	for _, row := range d.base {
		i := router.Route(g.Key(row))
		d.parts[i] = append(d.parts[i], row)
	}
	return nil
}

// relation returns a fresh relation over rows. Rows are shared, not
// copied: the program appends inserted rows and never mutates stored
// ones.
func (d *dataset) relation(rows []engine.Row) (*engine.Relation, error) {
	rel := engine.NewRelation(table, d.schema)
	return rel, rel.InsertAll(rows)
}

// spec is the synopsis of the harness shape over n rows.
func (d *dataset) spec(n int) congress.SynopsisSpec {
	return congress.SynopsisSpec{
		Table:        table,
		GroupBy:      groupCols,
		Space:        int(float64(n) * spacePct / 100),
		Strategy:     congress.Congress,
		BuildWorkers: congress.DefaultBuildWorkers(),
		Seed:         d.seed,
	}
}

// newRow draws an inserted row: its group follows the generator's
// group skew (the group of a uniformly drawn base row), its measures
// those of another base row, and a small share lands in a new group.
func (d *dataset) newRow(rng *rand.Rand) engine.Row {
	g := d.base[rng.Intn(len(d.base))]
	m := d.base[rng.Intn(len(d.base))]
	date := g[colDate]
	if rng.Float64() < newGroupShare {
		date = d.newDates[rng.Intn(len(d.newDates))]
	}
	d.mu.Lock()
	id := d.nextID
	d.nextID++
	d.mu.Unlock()
	return engine.Row{engine.NewInt(id), g[colFlag], g[colStatus], date, m[colQty], m[colPrice]}
}

func wireRow(r engine.Row) []any {
	return []any{r[colID].I, r[colFlag].I, r[colStatus].I, r[colDate].String(), r[colQty].F, r[colPrice].F}
}

func (d *dataset) ack(rows []engine.Row) {
	d.mu.Lock()
	d.acked = append(d.acked, rows...)
	d.mu.Unlock()
}

func (d *dataset) ackedRows() []engine.Row {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]engine.Row(nil), d.acked...)
}

// exactAgg is the ground truth of one group.
type exactAgg struct{ sumQty, sumPrice, n float64 }

// truth computes exact per-group aggregates over the base rows and every
// acknowledged insert, grouping by the given column ordinals. Keys are
// the rendered group values joined by the estimate-key separator, the
// form the server's answers are compared in.
func (d *dataset) truth(cols []int) map[string]*exactAgg {
	out := make(map[string]*exactAgg)
	add := func(r engine.Row) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = r[c].String()
		}
		k := strings.Join(parts, congress.EstimateKeySep)
		a := out[k]
		if a == nil {
			a = &exactAgg{}
			out[k] = a
		}
		a.sumQty += r[colQty].F
		a.sumPrice += r[colPrice].F
		a.n++
	}
	for _, r := range d.base {
		add(r)
	}
	for _, r := range d.ackedRows() {
		add(r)
	}
	return out
}

// wireKey renders the leading k values of a SQL answer row the way
// engine.Value.String renders them, so they match truth keys.
func wireKey(row []any, k int) (string, error) {
	parts := make([]string, k)
	for i := 0; i < k; i++ {
		switch v := row[i].(type) {
		case float64:
			parts[i] = strconv.FormatFloat(v, 'f', -1, 64)
		case string:
			parts[i] = v
		default:
			return "", fmt.Errorf("group value %v of type %T", row[i], row[i])
		}
	}
	return strings.Join(parts, congress.EstimateKeySep), nil
}
