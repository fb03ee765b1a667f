package datacube

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func measured(v float64) MeasureValue { return MeasureValue{V: v, OK: true} }

func TestNewWithMeasuresValidation(t *testing.T) {
	if _, err := NewWithMeasures([]string{"a"}, []string{""}); err == nil {
		t.Error("empty measure name accepted")
	}
	if _, err := NewWithMeasures([]string{"a"}, []string{"q", "q"}); err == nil {
		t.Error("duplicate measure accepted")
	}
	c, err := NewWithMeasures([]string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Measures() != nil || c.HasMeasure("q") {
		t.Errorf("measure-less cube reports measures: %v", c.Measures())
	}
	// Degrades to Add: measure accessors refuse unknown columns.
	if err := c.AddMeasured(id("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.MeasureSum(0, "", "q"); ok {
		t.Error("MeasureSum answered for untracked column")
	}
}

func TestAddMeasuredPrefixesAllMasks(t *testing.T) {
	c, err := NewWithMeasures([]string{"A", "B"}, []string{"q", "p"})
	if err != nil {
		t.Fatal(err)
	}
	// Two groups; q is null on one row of (a1,b1), p is always set.
	rows := []struct {
		a, b string
		q    MeasureValue
		p    MeasureValue
	}{
		{"a1", "b1", measured(5), measured(100)},
		{"a1", "b1", MeasureValue{}, measured(200)}, // q NULL
		{"a1", "b2", measured(7), measured(300)},
		{"a2", "b1", measured(11), measured(400)},
	}
	for _, r := range rows {
		if err := c.AddMeasured(id(r.a, r.b), []MeasureValue{r.q, r.p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddMeasured(id("a1", "b1"), []MeasureValue{measured(1)}); err == nil {
		t.Error("measure arity mismatch accepted")
	}

	check := func(mask uint32, key, col string, wantSum float64, wantNN int64) {
		t.Helper()
		s, ok := c.MeasureSum(mask, key, col)
		if !ok || s != wantSum {
			t.Errorf("MeasureSum(%b, %q, %s) = %v/%v, want %v", mask, key, col, s, ok, wantSum)
		}
		nn, ok := c.MeasureNonNull(mask, key, col)
		if !ok || nn != wantNN {
			t.Errorf("MeasureNonNull(%b, %q, %s) = %v/%v, want %v", mask, key, col, nn, ok, wantNN)
		}
	}
	// Finest grouping (A,B): the NULL q row counts for the tuple count
	// but not the measure.
	check(0b11, id("a1", "b1").Key(), "q", 5, 1)
	check(0b11, id("a1", "b1").Key(), "p", 300, 2)
	if n := c.Count(0b11, id("a1", "b1").Key()); n != 2 {
		t.Errorf("finest count %d, want 2 (nulls still count tuples)", n)
	}
	// Grouping on A only: a1 rolls up b1+b2.
	check(0b01, "a1", "q", 12, 2)
	check(0b01, "a1", "p", 600, 3)
	// Empty grouping: grand totals.
	check(0, "", "q", 23, 3)
	check(0, "", "p", 1000, 4)
}

// TestMeasureMergeCloneRestoreEquivalence drives a randomized tuple
// stream three ways — one sequential cube, a K-way partition merged
// with Merge, and a State→RestoreCube round-trip — and requires every
// mask/group/measure cell to agree exactly. This is the property the
// hybrid estimator's sharded exports rely on: per-shard cubes must
// merge into precisely the single-scan cube.
func TestMeasureMergeCloneRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"A", "B", "C"}
	meas := []string{"q", "p"}
	seq, err := NewWithMeasures(attrs, meas)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	shards := make([]*Cube, parts)
	for i := range shards {
		if shards[i], err = NewWithMeasures(attrs, meas); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		gid := id(
			fmt.Sprintf("a%d", rng.Intn(4)),
			fmt.Sprintf("b%d", rng.Intn(3)),
			fmt.Sprintf("c%d", rng.Intn(5)),
		)
		vals := []MeasureValue{
			{V: rng.Float64() * 100, OK: rng.Intn(10) > 0}, // ~10% NULL
			{V: float64(rng.Intn(1000)), OK: true},
		}
		if err := seq.AddMeasured(gid, vals); err != nil {
			t.Fatal(err)
		}
		if err := shards[rng.Intn(parts)].AddMeasured(gid, vals); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := NewWithMeasures(attrs, meas)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := RestoreCube(seq.State())
	if err != nil {
		t.Fatal(err)
	}
	clone := seq.Clone()

	for name, got := range map[string]*Cube{"merged": merged, "restored": restored, "clone": clone} {
		if got.Total() != seq.Total() {
			t.Errorf("%s: total %d != %d", name, got.Total(), seq.Total())
			continue
		}
		for mask := uint32(0); int(mask) < seq.NumGroupings(); mask++ {
			if got.NumGroups(mask) != seq.NumGroups(mask) {
				t.Errorf("%s mask %b: %d groups != %d", name, mask, got.NumGroups(mask), seq.NumGroups(mask))
			}
			for _, col := range meas {
				ok := seq.MeasureGroupsUnder(mask, col, func(key string, count int64, sum float64, nonNull int64) {
					if gc := got.Count(mask, key); gc != count {
						t.Errorf("%s mask %b %q: count %d != %d", name, mask, key, gc, count)
					}
					gs, _ := got.MeasureSum(mask, key, col)
					gn, _ := got.MeasureNonNull(mask, key, col)
					// Merge and restore add the same float values in a
					// different order (per finest group), so sums match
					// exactly only up to reassociation; counts are integers
					// and must be identical.
					if relErr := abs(gs-sum) / max1(abs(sum)); relErr > 1e-12 {
						t.Errorf("%s mask %b %q %s: sum %v != %v", name, mask, key, col, gs, sum)
					}
					if gn != nonNull {
						t.Errorf("%s mask %b %q %s: nonNull %d != %d", name, mask, key, col, gn, nonNull)
					}
				})
				if !ok {
					t.Fatalf("%s: measure %q lost", name, col)
				}
			}
		}
	}

	// Clone must be deep: mutating it cannot leak into the original.
	if err := clone.AddMeasured(id("a0", "b0", "c0"), []MeasureValue{measured(1e9), measured(1)}); err != nil {
		t.Fatal(err)
	}
	if got, _ := seq.MeasureSum(0, "", "q"); got >= 1e9 {
		t.Error("Clone shares measure maps with the original")
	}

	// Measure-set mismatches must refuse to merge.
	other := MustNew(attrs)
	if err := merged.Merge(other); err == nil {
		t.Error("merge of count-only cube into measured cube accepted")
	}
}

func TestAddMeasuredNValidation(t *testing.T) {
	c, err := NewWithMeasures([]string{"A"}, []string{"q"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddMeasuredN(id("x"), 3, []float64{1}, []int64{-1}); err == nil {
		t.Error("negative non-null count accepted")
	}
	if err := c.AddMeasuredN(id("x"), 3, []float64{1, 2}, []int64{1, 1}); err == nil {
		t.Error("measure batch arity mismatch accepted")
	}
	if err := c.AddMeasuredN(id("x"), 2, []float64{10}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if s, _ := c.MeasureSum(0b1, "x", "q"); s != 10 {
		t.Errorf("batch sum %v, want 10", s)
	}
	if n := c.Count(0b1, "x"); n != 2 {
		t.Errorf("batch count %d, want 2", n)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

// renderedValue is one grouping value as the synopsis exact cube sees
// it: the engine group key the slot is looked up by, and the rendered
// part its coarse groups are keyed by.
type renderedValue struct{ key, part string }

// TestLiveRestoredBitIdentical feeds random measured inserts — NULL
// measures, repeated groups, and distinct values that render alike
// (NULL vs the string "NULL", an int vs an equal float) — and requires
// RestoreCube(State()) to agree with the live cube under every mask with
// ==, not a tolerance. Applying the same further inserts to both must
// keep them identical.
func TestLiveRestoredBitIdentical(t *testing.T) {
	pools := [][]renderedValue{
		{{"\x00n", "NULL"}, {"\x00sNULL", "NULL"}, {"\x00sx", "x"}, {"\x00sy", "y"}},
		{{"\x00i1", "1"}, {"\x00g1", "1"}, {"\x00i2", "2"}},
		{{"\x00d0", "1970-01-01"}, {"\x00d1", "1970-01-02"}, {"\x00n", "NULL"}},
	}
	meas := []string{"q", "p"}
	rng := rand.New(rand.NewSource(13))
	insert := func(c *Cube, n int, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			var key []byte
			id := make(GroupID, len(pools))
			for a, pool := range pools {
				v := pool[rng.Intn(len(pool))]
				if a > 0 {
					key = append(key, KeySep...)
				}
				key = append(key, v.key...)
				id[a] = v.part
			}
			vals := []MeasureValue{
				{V: rng.NormFloat64() * 1e6, OK: rng.Intn(6) > 0},
				{V: rng.Float64() / 3, OK: rng.Intn(10) > 0},
			}
			s, err := c.Intern(key, id)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AddMeasuredSlot(s, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	live, err := NewWithMeasures([]string{"A", "B", "C"}, meas)
	if err != nil {
		t.Fatal(err)
	}
	insert(live, 2000, rng)
	if live.NumGroups(live.FinestMask()) >= live.NumSlots() {
		t.Fatalf("no rendered-key collisions: %d finest groups over %d slots", live.NumGroups(live.FinestMask()), live.NumSlots())
	}
	restored, err := RestoreCube(live.State())
	if err != nil {
		t.Fatal(err)
	}
	assertCubesIdentical(t, "restored", live, restored, meas)
	assertCubesIdentical(t, "clone", live, live.Clone(), meas)

	seed := rng.Int63()
	insert(live, 500, rand.New(rand.NewSource(seed)))
	insert(restored, 500, rand.New(rand.NewSource(seed)))
	assertCubesIdentical(t, "restored after further inserts", live, restored, meas)
}

// measureRow is one group's state under a mask and measure.
type measureRow struct {
	count, nonNull int64
	sum            uint64 // float64 bits
}

func assertCubesIdentical(t *testing.T, name string, want, got *Cube, meas []string) {
	t.Helper()
	if got.Total() != want.Total() {
		t.Fatalf("%s: total %d != %d", name, got.Total(), want.Total())
	}
	for mask := uint32(0); int(mask) < want.NumGroupings(); mask++ {
		if got.NumGroups(mask) != want.NumGroups(mask) {
			t.Errorf("%s mask %b: %d groups != %d", name, mask, got.NumGroups(mask), want.NumGroups(mask))
		}
		counts := func(c *Cube) map[string]int64 {
			out := map[string]int64{}
			c.GroupsUnder(mask, func(key string, n int64) { out[key] = n })
			return out
		}
		if w, g := counts(want), counts(got); !reflect.DeepEqual(w, g) {
			t.Errorf("%s mask %b: GroupsUnder %v != %v", name, mask, g, w)
		}
		for _, col := range meas {
			rows := func(c *Cube) map[string]measureRow {
				out := map[string]measureRow{}
				c.MeasureGroupsUnder(mask, col, func(key string, count int64, sum float64, nonNull int64) {
					out[key] = measureRow{count: count, nonNull: nonNull, sum: math.Float64bits(sum)}
				})
				return out
			}
			w, g := rows(want), rows(got)
			if !reflect.DeepEqual(w, g) {
				t.Errorf("%s mask %b %s: MeasureGroupsUnder %v != %v", name, mask, col, g, w)
				continue
			}
			for key, r := range w {
				sum, _ := got.MeasureSum(mask, key, col)
				nn, _ := got.MeasureNonNull(mask, key, col)
				if got.Count(mask, key) != r.count || math.Float64bits(sum) != r.sum || nn != r.nonNull {
					t.Errorf("%s mask %b %q %s: point reads (%d, %v, %d) != roll-up (%d, %v, %d)",
						name, mask, key, col, got.Count(mask, key), sum, nn, r.count, math.Float64frombits(r.sum), r.nonNull)
				}
			}
		}
	}
}

// TestConcurrentRollups reads a cube from several goroutines at once
// right after new slots appeared, so the readers race to extend the
// roll-up order; every reader must see the same sums. Run with -race.
func TestConcurrentRollups(t *testing.T) {
	c, err := NewWithMeasures([]string{"A", "B"}, []string{"q"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		gid := id(fmt.Sprintf("a%d", rng.Intn(20)), fmt.Sprintf("b%d", rng.Intn(20)))
		if err := c.AddMeasured(gid, []MeasureValue{measured(rng.NormFloat64())}); err != nil {
			t.Fatal(err)
		}
	}
	const readers = 8
	sums := make([]uint64, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var total float64
			c.MeasureGroupsUnder(0b01, "q", func(_ string, _ int64, sum float64, _ int64) { total += sum })
			s, _ := c.MeasureSum(0, "", "q")
			sums[r] = math.Float64bits(total + s)
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		if sums[r] != sums[0] {
			t.Fatalf("reader %d saw %v, reader 0 saw %v", r, math.Float64frombits(sums[r]), math.Float64frombits(sums[0]))
		}
	}
}
