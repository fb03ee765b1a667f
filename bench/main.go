// Command congressbench is the repository's end-to-end benchmark. It
// starts the whole congress stack in-process on loopback — warehouse,
// HTTP server, durable leader with a replication follower, or a
// coordinator over four shard servers — drives one named workload
// open-loop through pkg/client, checks the answers against exact
// ground truth, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd in
// metrics.go); with -trace 1 the run is repeated with spans recorded
// around every call into a layer, each layer's exported entry point is
// replayed with the workload's own inputs, and the metrics are the
// per-layer set (perLayer). Run it through run.sh, which builds it:
//
//	bash bench/run.sh --workload olap_read --seed 1 --seconds 10 --trace 0
//
// A failed correctness gate prints the result with "correct": false and
// exits 1; a harness error exits 1 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "congressbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("congressbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input (data, requests, schedule)")
	seconds := fs.Int("seconds", 10, "measured seconds of load")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for data directories and span dumps")
	commit := fs.String("commit", "unknown", "commit of the code under test, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	dir, err := os.MkdirTemp(*workdir, "run-"+*name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		dir:     dir,
		spanOut: filepath.Join(*workdir, "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)),
	}
	res, err := runWorkload(wl, cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, *name, cfg, *commit, res)
	if !res.correct {
		return fmt.Errorf("correctness gate failed: %s", strings.Join(res.gateFailures, "; "))
	}
	return nil
}

// result is what one run reports.
type result struct {
	correct      bool
	gateFailures []string
	attempted    int
	failed       int
	metrics      map[string]float64
}

// printResult writes a human-readable header and metric table, then the
// JSON result line. The header records what the numbers depend on:
// host cores, GOMAXPROCS, the commit and the fsync policy.
func printResult(f *os.File, name string, cfg runConfig, commit string, res *result) {
	mode := "end-to-end"
	defs := endToEnd
	if cfg.trace {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(f, "workload %s seed %d window %v, %s metrics\n", name, cfg.seed, cfg.window, mode)
	fmt.Fprintf(f, "host_cores %d GOMAXPROCS %d commit %s fsync %s go %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), commit, fsyncPolicy, runtime.Version())
	fmt.Fprintf(f, "attempted %d failed %d correct %v\n", res.attempted, res.failed, res.correct)
	for _, g := range res.gateFailures {
		fmt.Fprintf(f, "gate failed: %s\n", g)
	}
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := res.metrics[d.Name]
		fmt.Fprintf(f, "%-40s %16.6g %s\n", d.Name, v, d.Unit)
		out[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	fmt.Fprintln(f, string(line))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
