package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func TestCongressDeltaMaintainerBasics(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(21))
	m, err := NewCongressDeltaMaintainer(g, nil, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5000; i++ {
		m.Insert(streamRow("a"+strconv.FormatInt(i%4, 10), "b"+strconv.FormatInt(i%2, 10), i))
	}
	if m.SeenCount() != 5000 {
		t.Fatalf("seen %d", m.SeenCount())
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Population() != 5000 {
		t.Fatalf("population %d", st.Population())
	}
	// i%2 is determined by i%4, so the stream yields 4 distinct
	// (a, b) combinations.
	if st.NumStrata() != 4 {
		t.Fatalf("strata %d", st.NumStrata())
	}
	if m.Cube().Total() != 5000 {
		t.Fatalf("cube total %d", m.Cube().Total())
	}
}

func TestCongressDeltaMaintainerValidation(t *testing.T) {
	g := streamGrouping(t)
	if _, err := NewCongressDeltaMaintainer(g, nil, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero Y accepted")
	}
}

func TestCongressDeltaSmallGroupBoost(t *testing.T) {
	// A tiny group must be held close to its Congress target, far above
	// its House share.
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(22))
	m, _ := NewCongressDeltaMaintainer(g, nil, 120, rng)
	for i := int64(0); i < 20000; i++ {
		m.Insert(streamRow("big", "x", i))
	}
	for i := int64(0); i < 60; i++ {
		m.Insert(streamRow("small", "x", i))
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	small, ok := st.Get(rowKey("small", "x"))
	if !ok {
		t.Fatal("small group missing")
	}
	// Congress target for the small group: max over T. With 2 groups,
	// Senate-side requirement is Y/2 = 60 = the whole group.
	if len(small.Items) < 50 {
		t.Errorf("small group holds %d, want near its full 60", len(small.Items))
	}
}

// TestCongressDeltaMatchesEq8Expectation compares the two Congress
// maintenance algorithms of Section 6: over many runs of the same
// stream, their mean per-stratum sizes must both converge to the
// pre-scaling Congress targets.
func TestCongressDeltaMatchesEq8Expectation(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(23))
	groups := []struct {
		a, b string
		n    int
	}{
		{"a1", "b1", 3000}, {"a1", "b2", 3000}, {"a1", "b3", 1500}, {"a2", "b3", 2500},
	}
	const (
		Y      = 100
		trials = 40
	)
	sizes := map[string]float64{}
	for trial := 0; trial < trials; trial++ {
		m, err := NewCongressDeltaMaintainer(g, nil, Y, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave bursts round-robin, as in the Eq. 8 test.
		remaining := map[int]int{}
		for i, gr := range groups {
			remaining[i] = gr.n
		}
		v := int64(0)
		for done := false; !done; {
			done = true
			for i, gr := range groups {
				if remaining[i] == 0 {
					continue
				}
				burst := 25
				if remaining[i] < burst {
					burst = remaining[i]
				}
				for j := 0; j < burst; j++ {
					m.Insert(streamRow(gr.a, gr.b, v))
					v++
				}
				remaining[i] -= burst
				done = false
			}
		}
		st, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		st.Each(func(s *sampleStratum) {
			sizes[s.Key] += float64(len(s.Items))
		})
	}
	want := map[string]float64{
		rowKey("a1", "b1"): 100.0 / 3,
		rowKey("a1", "b2"): 100.0 / 3,
		rowKey("a1", "b3"): 25,
		rowKey("a2", "b3"): 50,
	}
	for k, w := range want {
		got := sizes[k] / trials
		if math.Abs(got-w) > 0.2*w+4 {
			t.Errorf("stratum %q mean size %.2f, want ~%.2f", k, got, w)
		}
	}
}

func TestCongressDeltaImplementsMaintainer(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(24))
	var m Maintainer
	cm, err := NewCongressDeltaMaintainer(g, nil, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	m = cm
	for i := int64(0); i < 500; i++ {
		m.Insert(streamRow("g"+strconv.FormatInt(i%3, 10), "h", i))
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}
