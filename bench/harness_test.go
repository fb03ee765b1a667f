package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/approxdb/congress/pkg/client"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{5000, 0.99, 4950, true},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample supports no percentile")
	}
}

// steady returns n successful samples of the given latency, due 1ms
// apart.
func steady(n int, lat time.Duration) []sample {
	s := make([]sample, n)
	for i := range s {
		due := time.Duration(i) * time.Millisecond
		s[i] = sample{due: due, start: due, end: due + lat}
	}
	return s
}

func TestFailuresCountAsMisses(t *testing.T) {
	s := steady(1000, time.Millisecond)
	for i := 0; i < 11; i++ {
		s[i*90].failed = true
	}
	lat := latencies(s, nil)
	if p99, ok := percentile(lat, 0.99); !ok || p99 != ms(opTimeout) {
		t.Errorf("p99 with 1.1%% failed = %v (ok %v), want the timeout %v", p99, ok, ms(opTimeout))
	}
	if r := judgeStep(100, s, 50); r.pass {
		t.Errorf("a step with 1.1%% failed ops passed the 1%% SLO: %+v", r)
	}
	s[0].failed = false
	if r := judgeStep(100, s, 50); !r.pass {
		t.Errorf("a step with 1.0%% failed ops failed the 1%% SLO: %+v", r)
	}
}

func TestJudgeStepBacklog(t *testing.T) {
	s := steady(1000, time.Millisecond)
	s[len(s)-1].start += 60 * time.Millisecond
	if r := judgeStep(100, s, 50); r.pass || r.backlogMS < 60 {
		t.Errorf("a step whose last op started 60ms late passed a 50ms limit: %+v", r)
	}
}

// TestShedOpsAreFailures drives openLoop against a server that sheds
// every other request with 429, as admission control does, and checks
// the shed ops are recorded as failed.
func TestShedOpsAreFailures(t *testing.T) {
	n := 0
	srv := http.Server{}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		n++
		if n%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded","code":"overloaded"}`))
			return
		}
		w.Write([]byte(`{"elapsed_ms":0.5}`))
	})
	srv.Handler = mux
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c := client.New("http://" + ln.Addr().String())
	in := newInputs()
	ops := make([]op, 20)
	for i := range ops {
		ops[i] = queryOp(c, in, "q", client.QueryRequest{SQL: "select 1"})
	}
	// One sender at a time keeps the handler's counter unshared.
	s := openLoopSerial(ops)
	failed := 0
	for _, x := range s {
		if x.failed {
			failed++
		}
	}
	if failed != 10 {
		t.Fatalf("got %d failed of 20 with every other one shed; want 10", failed)
	}
	if lat := latencies(s, nil); lat[len(lat)-1] != ms(opTimeout) {
		t.Errorf("a shed op did not count as a latency miss: worst %v", lat[len(lat)-1])
	}
}

// openLoopSerial runs ops one after another with the same bookkeeping
// as openLoop.
func openLoopSerial(ops []op) []sample {
	var out []sample
	for _, o := range ops {
		out = append(out, openLoop([]op{o}, 1000, time.Second)...)
	}
	return out
}

func TestMetricDefinitions(t *testing.T) {
	if err := checkDefs(endToEnd, 16); err != nil {
		t.Errorf("end-to-end metrics: %v", err)
	}
	if err := checkDefs(perLayer, 128); err != nil {
		t.Errorf("per-layer metrics: %v", err)
	}
	for _, bad := range []string{"", "a b", "x/y", "_lead", "é"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and
// workloads in step with the harness.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || (g.Better != "" && g.Better != d.Better) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
}

func TestDeckDealsExactProportions(t *testing.T) {
	d := newDeck(3, 2, 3, 2)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		counts[d.draw(rng)]++
	}
	for i, want := range []int{300, 200, 300, 200} {
		if counts[i] != want {
			t.Errorf("class %d dealt %d times in 1000, want %d", i, counts[i], want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(p, kids); got != 40 {
		t.Errorf("children cover %d of the parent, want 40", got)
	}
	tr := newTracer()
	tr.do("outer", 0, 7, func(id int64) {
		tr.do("inner", id, 7, func(int64) { time.Sleep(2 * time.Millisecond) })
	})
	for _, st := range tr.stats() {
		if st.Name == "outer" && st.SelfMS >= st.TotalMS {
			t.Errorf("outer self time %vms not below its total %vms", st.SelfMS, st.TotalMS)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDefs validates a metric set against the benchmark contract: legal
// unique names and units, and at most max entries.
func checkDefs(defs []metricDef, max int) error {
	if len(defs) == 0 || len(defs) > max {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), max)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		switch {
		case !metricName.MatchString(d.Name):
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", d.Name)
		case seen[d.Name]:
			return fmt.Errorf("metric %q defined twice", d.Name)
		case !unit.MatchString(d.Unit):
			return fmt.Errorf("metric %q unit %q", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %q better %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	return nil
}
