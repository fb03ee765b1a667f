package main

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// signalWriter closes listening on the first write: runServe writes
// only its "listening on" line, so a write means it is serving.
type signalWriter struct {
	once      sync.Once
	listening chan struct{}
}

func (w *signalWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.listening) })
	return len(p), nil
}

// TestServeRejectsStrayArguments pins that a positional word ends
// nothing silently: flag parsing stops at the first non-flag word, so
// without the check the flags after it (here -data-dir) were dropped
// and the server came up without durability. The removed loadgen mode
// must likewise be refused rather than boot a default server.
func TestServeRejectsStrayArguments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "oops", "-data-dir", dir},
		{"loadgen", "-self"},
	} {
		out := &signalWriter{listening: make(chan struct{})}
		errc := make(chan error, 1)
		go func() { errc <- runServe(args, out) }()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "unexpected argument") {
				t.Errorf("runServe(%q) = %v, want an unexpected-argument error", args, err)
			}
		case <-out.listening:
			t.Fatalf("runServe(%q) started serving instead of rejecting the stray argument", args)
		case <-time.After(2 * time.Minute):
			t.Fatalf("runServe(%q) neither failed nor served", args)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("data dir after rejected arguments: stat err = %v, want not-exist", err)
	}
}

// TestServeShardedEndToEnd boots the real binary with in-process
// shards: a direct estimate scatter-gathers every group of the
// generated table within a loose accuracy rail, approximate SQL is
// refused with 400 (sharded mode has no merged base table), and
// SIGTERM drains to a clean exit.
func TestServeShardedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a real congressd; skipped in -short")
	}
	bin := buildCongressd(t)
	cmd, addr, stderr := startServeProc(t, bin, "-shards", "4", "-rows", "8000", "-groups", "27")
	defer killProc(cmd)
	c := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Ground truth from the same generated table (serve's defaults:
	// skew 0.86, seed 1).
	rel, err := tpcd.Generate(tpcd.Params{TableSize: 8000, NumGroups: 27, GroupSkew: 0.86, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := congress.Open()
	if _, err := exact.AttachRelation(rel); err != nil {
		t.Fatal(err)
	}
	res, err := exact.Query(`select l_returnflag, l_linestatus, l_shipdate, sum(l_quantity)
		from lineitem group by l_returnflag, l_linestatus, l_shipdate`)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string]float64, len(res.Rows))
	for _, r := range res.Rows {
		v, _ := r[3].AsFloat()
		truth[r[0].String()+"|"+r[1].String()+"|"+r[2].String()] = v
	}
	if len(truth) != 27 {
		t.Fatalf("generated table has %d groups, want 27", len(truth))
	}

	resp, err := c.Query(ctx, client.QueryRequest{
		Estimate: &client.EstimateRequest{
			Table:   "lineitem",
			GroupBy: tpcd.GroupingAttrs,
			Agg:     "sum",
			Column:  "l_quantity",
		},
		NoCache: true,
	})
	if err != nil {
		t.Fatalf("sharded estimate: %v\n%s", err, stderr.String())
	}
	if len(resp.Groups) != len(truth) {
		t.Fatalf("sharded estimate has %d groups, want %d", len(resp.Groups), len(truth))
	}
	for _, g := range resp.Groups {
		want, ok := truth[strings.Join(g.Group, "|")]
		if !ok {
			t.Fatalf("estimated group %v not in the table", g.Group)
		}
		// A loose rail, not a statistical assertion: at 7% space every
		// group lands well within 50% relative error.
		if rel := math.Abs(g.Value-want) / want; rel > 0.5 {
			t.Errorf("group %v: estimate %v, exact %v (relative error %.2f)", g.Group, g.Value, want, rel)
		}
	}

	_, err = c.Query(ctx, client.QueryRequest{SQL: `select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag`})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("approximate SQL in sharded mode: err %v, want a 400", err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v\n%s", err, stderr.String())
	}
}

func TestSplitCSV(t *testing.T) {
	got := splitCSV(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
