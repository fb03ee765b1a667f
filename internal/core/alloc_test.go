package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/approxdb/congress/internal/datacube"
)

// figure5Cube reproduces the paper's Figure 5 example: grouping
// attributes A, B with groups (a1,b1)=3000, (a1,b2)=3000, (a1,b3)=1500,
// (a2,b3)=2500.
func figure5Cube(t testing.TB) *datacube.Cube {
	t.Helper()
	cube := datacube.MustNew([]string{"A", "B"})
	add := func(a, b string, n int) {
		id := datacube.GroupID{a, b}
		for i := 0; i < n; i++ {
			if err := cube.Add(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("a1", "b1", 3000)
	add("a1", "b2", 3000)
	add("a1", "b3", 1500)
	add("a2", "b3", 2500)
	return cube
}

func key(parts ...string) string {
	return datacube.GroupID(parts).Key()
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f (±%.3f)", name, got, want, tol)
	}
}

func TestFigure5House(t *testing.T) {
	cube := figure5Cube(t)
	a, err := Allocate(House, cube, 100)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "house (a1,b1)", a.Targets[key("a1", "b1")], 30, 1e-9)
	approx(t, "house (a1,b2)", a.Targets[key("a1", "b2")], 30, 1e-9)
	approx(t, "house (a1,b3)", a.Targets[key("a1", "b3")], 15, 1e-9)
	approx(t, "house (a2,b3)", a.Targets[key("a2", "b3")], 25, 1e-9)
	approx(t, "house scale-down", a.ScaleDown, 1, 1e-9)
}

func TestFigure5Senate(t *testing.T) {
	cube := figure5Cube(t)
	a, err := Allocate(Senate, cube, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range [][2]string{{"a1", "b1"}, {"a1", "b2"}, {"a1", "b3"}, {"a2", "b3"}} {
		approx(t, "senate "+g[0]+g[1], a.Targets[key(g[0], g[1])], 25, 1e-9)
	}
}

func TestFigure5BasicCongress(t *testing.T) {
	cube := figure5Cube(t)
	a, err := Allocate(BasicCongress, cube, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: before scaling 30, 30, 25, 25; after scaling 27.3, 27.3,
	// 22.7, 22.7.
	approx(t, "pre (a1,b1)", a.PreScale[key("a1", "b1")], 30, 1e-9)
	approx(t, "pre (a1,b3)", a.PreScale[key("a1", "b3")], 25, 1e-9)
	approx(t, "post (a1,b1)", a.Targets[key("a1", "b1")], 27.3, 0.05)
	approx(t, "post (a1,b2)", a.Targets[key("a1", "b2")], 27.3, 0.05)
	approx(t, "post (a1,b3)", a.Targets[key("a1", "b3")], 22.7, 0.05)
	approx(t, "post (a2,b3)", a.Targets[key("a2", "b3")], 22.7, 0.05)
	approx(t, "total", a.Total(), 100, 1e-6)
}

func TestFigure5Congress(t *testing.T) {
	cube := figure5Cube(t)
	a, err := Allocate(Congress, cube, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Paper's last two columns: before scaling 33.3, 33.3, 25, 50;
	// after scaling 23.5, 23.5, 17.7, 35.3.
	approx(t, "pre (a1,b1)", a.PreScale[key("a1", "b1")], 100.0/3, 0.05)
	approx(t, "pre (a1,b2)", a.PreScale[key("a1", "b2")], 100.0/3, 0.05)
	approx(t, "pre (a1,b3)", a.PreScale[key("a1", "b3")], 25, 1e-9)
	approx(t, "pre (a2,b3)", a.PreScale[key("a2", "b3")], 50, 1e-9)
	approx(t, "post (a1,b1)", a.Targets[key("a1", "b1")], 23.5, 0.05)
	approx(t, "post (a1,b2)", a.Targets[key("a1", "b2")], 23.5, 0.05)
	// Exact value is 25·(100/141.67) = 17.647; the paper's table rounds
	// its entries so they visibly sum to 100 and prints 17.7.
	approx(t, "post (a1,b3)", a.Targets[key("a1", "b3")], 17.65, 0.05)
	approx(t, "post (a2,b3)", a.Targets[key("a2", "b3")], 35.3, 0.05)
	approx(t, "total", a.Total(), 100, 1e-6)
}

func TestFigure5GroupingVectors(t *testing.T) {
	// The intermediate s_{g,A} and s_{g,B} columns of Figure 5.
	cube := figure5Cube(t)
	// Attribute A is bit 0, B is bit 1.
	vA := GroupingVector(cube, 100, 0b01)
	approx(t, "s_{(a1,b1),A}", vA.Targets[key("a1", "b1")], 20, 1e-9)
	approx(t, "s_{(a1,b3),A}", vA.Targets[key("a1", "b3")], 10, 1e-9)
	approx(t, "s_{(a2,b3),A}", vA.Targets[key("a2", "b3")], 50, 1e-9)
	vB := GroupingVector(cube, 100, 0b10)
	approx(t, "s_{(a1,b1),B}", vB.Targets[key("a1", "b1")], 100.0/3, 1e-9)
	approx(t, "s_{(a1,b3),B}", vB.Targets[key("a1", "b3")], 12.5, 1e-9)
	approx(t, "s_{(a2,b3),B}", vB.Targets[key("a2", "b3")], 125.0/6, 1e-9)
}

func TestAllocateValidation(t *testing.T) {
	cube := figure5Cube(t)
	if _, err := Allocate(Congress, cube, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Allocate(Strategy(99), cube, 10); err == nil {
		t.Error("unknown strategy accepted")
	}
	empty := datacube.MustNew([]string{"A"})
	if _, err := Allocate(House, empty, 10); err == nil {
		t.Error("empty cube accepted")
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		House: "House", Senate: "Senate", BasicCongress: "BasicCongress", Congress: "Congress",
	} {
		if s.String() != want {
			t.Errorf("%d String = %q", s, s.String())
		}
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy renders empty")
	}
}

// TestScaleDownUniform verifies f = 1 when tuples are uniform across the
// full cross-product (the paper's best case for the scale-down factor).
func TestScaleDownUniform(t *testing.T) {
	cube := datacube.MustNew([]string{"A", "B"})
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			id := datacube.GroupID{"a" + strconv.Itoa(a), "b" + strconv.Itoa(b)}
			for i := 0; i < 100; i++ {
				cube.Add(id)
			}
		}
	}
	alloc, err := Allocate(Congress, cube, 60)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "uniform scale-down", alloc.ScaleDown, 1, 1e-9)
	for k, v := range alloc.Targets {
		approx(t, "uniform target "+k, v, 10, 1e-9)
	}
}

// TestAllStrategiesCoincideOnUniformData verifies the Section 7.2.1
// observation: "when all the groups are of the same size (i.e., z=0),
// all the techniques result in the same allocation, which is a uniform
// sample of the data."
func TestAllStrategiesCoincideOnUniformData(t *testing.T) {
	cube := datacube.MustNew([]string{"A", "B"})
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			id := datacube.GroupID{"a" + strconv.Itoa(a), "b" + strconv.Itoa(b)}
			for i := 0; i < 50; i++ {
				cube.Add(id)
			}
		}
	}
	base, err := Allocate(House, cube, 120)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Senate, BasicCongress, Congress} {
		alloc, err := Allocate(strat, cube, 120)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range base.Targets {
			if math.Abs(alloc.Targets[k]-v) > 1e-9 {
				t.Errorf("%v target %q = %v, house %v — must coincide at z=0", strat, k, alloc.Targets[k], v)
			}
		}
	}
}

// TestScaleDownBounds checks 2^-|G| <= f <= 1 on random cubes (the
// paper's analysis of the scale-down factor).
func TestScaleDownBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cube := datacube.MustNew([]string{"A", "B", "C"})
		n := 50 + rng.Intn(500)
		for i := 0; i < n; i++ {
			cube.Add(datacube.GroupID{
				"a" + strconv.Itoa(rng.Intn(4)),
				"b" + strconv.Itoa(rng.Intn(3)),
				"c" + strconv.Itoa(rng.Intn(2)),
			})
		}
		alloc, err := Allocate(Congress, cube, 1+rng.Intn(n))
		if err != nil {
			return false
		}
		const eps = 1e-9
		return alloc.ScaleDown <= 1+eps && alloc.ScaleDown >= 1.0/8-eps &&
			math.Abs(alloc.Total()-alloc.X) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCongressWithinFactorF asserts the Eq. 5/6 guarantee: every group's
// final allocation is exactly f times its best per-grouping optimal, and
// hence within factor f of *every* grouping's optimal for that group.
func TestCongressWithinFactorF(t *testing.T) {
	cube := figure5Cube(t)
	alloc, err := Allocate(Congress, cube, 100)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint32(0); int(mask) < cube.NumGroupings(); mask++ {
		v := GroupingVector(cube, 100, mask)
		for k, s := range v.Targets {
			if alloc.Targets[k] < alloc.ScaleDown*s-1e-9 {
				t.Errorf("group %q mask %b: target %.3f below f*s = %.3f",
					k, mask, alloc.Targets[k], alloc.ScaleDown*s)
			}
		}
	}
}

// TestPathologicalScaleDown builds the Eq. 7 adversarial distribution
// (scaled down) and checks f approaches 2^-|G|.
func TestPathologicalScaleDown(t *testing.T) {
	// n = 2 attributes, domain {1..m}, |(v1,v2)| = (2m)^{2n·α} with α
	// the number of attributes equal to 1. Use m = 4, n = 2: counts are
	// 1, 8^4=4096, or 8^8 — too big to Add per tuple; instead use a
	// miniature variant exercising the same shape: counts
	// heavily concentrated on attribute-value-1 combinations.
	cube := datacube.MustNew([]string{"A", "B"})
	m := 4
	addN := func(a, b string, n int) {
		id := datacube.GroupID{a, b}
		for i := 0; i < n; i++ {
			cube.Add(id)
		}
	}
	for a := 1; a <= m; a++ {
		for b := 1; b <= m; b++ {
			alpha := 0
			if a == 1 {
				alpha++
			}
			if b == 1 {
				alpha++
			}
			// (2m)^ (2*alpha) with 2m=8: 1, 64, 4096 — scaled by /1 to
			// keep the test fast but preserving the dominance structure.
			n := 1
			for i := 0; i < alpha; i++ {
				n *= 64
			}
			addN("a"+strconv.Itoa(a), "b"+strconv.Itoa(b), n)
		}
	}
	alloc, err := Allocate(Congress, cube, 100)
	if err != nil {
		t.Fatal(err)
	}
	// For |G| = 2 the bound is f -> 1/4; with m = 4 the paper's formula
	// gives f < (1 + 8^-2)(2 - 1/4)^-2 ≈ 0.327.
	if alloc.ScaleDown > 0.35 {
		t.Errorf("pathological scale-down f = %.3f, want near 1/4", alloc.ScaleDown)
	}
	if alloc.ScaleDown < 0.25-1e-9 {
		t.Errorf("scale-down %.3f below theoretical floor 1/4", alloc.ScaleDown)
	}
}

func TestPreferenceVector(t *testing.T) {
	cube := figure5Cube(t)
	// Prefer group a2 (under grouping A, mask 0b01) three times as much
	// as a1.
	v := PreferenceVector(cube, 100, 0b01, map[string]float64{"a1": 0.25, "a2": 0.75})
	// a1 gets 25 split over its 7500 tuples proportionally; (a1,b1)
	// holds 3000/7500 of that = 10; a2's only subgroup gets all 75.
	approx(t, "pref (a1,b1)", v.Targets[key("a1", "b1")], 10, 1e-9)
	approx(t, "pref (a2,b3)", v.Targets[key("a2", "b3")], 75, 1e-9)
}

func TestNeymanVector(t *testing.T) {
	cube := figure5Cube(t)
	sd := map[string]float64{
		key("a1", "b1"): 1,
		key("a1", "b2"): 1,
		key("a1", "b3"): 10, // high-variance group should win space
		key("a2", "b3"): 1,
	}
	v := NeymanVector(cube, 100, sd)
	// Weights n_g*sigma: 3000, 3000, 15000, 2500 — total 23500.
	approx(t, "neyman (a1,b3)", v.Targets[key("a1", "b3")], 100*15000.0/23500, 1e-9)
	var sum float64
	for _, x := range v.Targets {
		sum += x
	}
	approx(t, "neyman total", sum, 100, 1e-9)

	// All-zero variances degrade gracefully.
	v0 := NeymanVector(cube, 100, map[string]float64{})
	for k, x := range v0.Targets {
		if x != 0 {
			t.Errorf("zero-variance target %q = %v", k, x)
		}
	}
}

func TestCombineVectorsEmpty(t *testing.T) {
	a := CombineVectors(100)
	if a.ScaleDown != 1 || len(a.Targets) != 0 {
		t.Errorf("empty combine: %+v", a)
	}
}

// TestCombineVectorsDeterministic recombines the same 1000-key vectors
// 50 times: the scale-down factor, the total and the integer targets
// must be bit-identical every time, whatever order the maps iterate in.
func TestCombineVectorsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const groups = 1000
	vecs := make([]WeightVector, 3)
	pops := make(map[string]int64, groups)
	for i := range vecs {
		vecs[i] = WeightVector{Name: strconv.Itoa(i), Targets: make(map[string]float64, groups)}
	}
	for g := 0; g < groups; g++ {
		k := key("g"+strconv.Itoa(g), "h"+strconv.Itoa(g%7))
		pops[k] = 1 + rng.Int63n(500)
		for _, v := range vecs {
			v.Targets[k] = rng.Float64() * 3.7
		}
	}
	const X = 1501
	first := CombineVectors(X, vecs...)
	firstTotal := first.Total()
	firstInts := first.IntegerTargets(pops)
	for run := 1; run < 50; run++ {
		a := CombineVectors(X, vecs...)
		if math.Float64bits(a.ScaleDown) != math.Float64bits(first.ScaleDown) {
			t.Fatalf("run %d: ScaleDown %v != %v", run, a.ScaleDown, first.ScaleDown)
		}
		if math.Float64bits(a.Total()) != math.Float64bits(firstTotal) {
			t.Fatalf("run %d: Total %v != %v", run, a.Total(), firstTotal)
		}
		ints := a.IntegerTargets(pops)
		if len(ints) != len(firstInts) {
			t.Fatalf("run %d: %d integer targets, want %d", run, len(ints), len(firstInts))
		}
		for k, n := range firstInts {
			if ints[k] != n {
				t.Fatalf("run %d: group %q gets %d tuples, first run %d", run, k, ints[k], n)
			}
		}
	}
}

func TestIntegerTargetsSumAndCaps(t *testing.T) {
	cube := figure5Cube(t)
	pops := map[string]int64{}
	cube.FinestGroups(func(k string, n int64) { pops[k] = n })

	alloc, _ := Allocate(Congress, cube, 100)
	ints := alloc.IntegerTargets(pops)
	sum := 0
	for k, v := range ints {
		sum += v
		if int64(v) > pops[k] {
			t.Errorf("group %q allocated %d beyond population %d", k, v, pops[k])
		}
	}
	if sum != 100 {
		t.Errorf("integer targets sum to %d, want 100", sum)
	}
}

func TestIntegerTargetsCapping(t *testing.T) {
	// A tiny group cannot absorb its Senate share; overflow must be
	// redistributed.
	cube := datacube.MustNew([]string{"A"})
	for i := 0; i < 5; i++ {
		cube.Add(datacube.GroupID{"small"})
	}
	for i := 0; i < 1000; i++ {
		cube.Add(datacube.GroupID{"big"})
	}
	alloc, err := Allocate(Senate, cube, 100)
	if err != nil {
		t.Fatal(err)
	}
	ints := alloc.IntegerTargets(map[string]int64{key("small"): 5, key("big"): 1000})
	if ints[key("small")] != 5 {
		t.Errorf("small group got %d, want all 5", ints[key("small")])
	}
	if ints[key("big")] != 95 {
		t.Errorf("big group got %d, want 95 (redistributed)", ints[key("big")])
	}
}

func TestIntegerTargetsBudgetCoversRelation(t *testing.T) {
	cube := datacube.MustNew([]string{"A"})
	for i := 0; i < 10; i++ {
		cube.Add(datacube.GroupID{"g"})
	}
	alloc, _ := Allocate(House, cube, 50)
	ints := alloc.IntegerTargets(map[string]int64{key("g"): 10})
	if ints[key("g")] != 10 {
		t.Errorf("over-budget allocation %d, want full population 10", ints[key("g")])
	}
}

// Property: growing the budget never shrinks any group's allocation
// (all four strategies are monotone in X).
func TestAllocationMonotoneInBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cube := datacube.MustNew([]string{"A", "B"})
		for i := 0; i < 100+rng.Intn(400); i++ {
			cube.Add(datacube.GroupID{
				"a" + strconv.Itoa(rng.Intn(3)),
				"b" + strconv.Itoa(rng.Intn(3)),
			})
		}
		x1 := 1 + rng.Intn(100)
		x2 := x1 + 1 + rng.Intn(100)
		for _, strat := range Strategies {
			small, err := Allocate(strat, cube, x1)
			if err != nil {
				return false
			}
			big, err := Allocate(strat, cube, x2)
			if err != nil {
				return false
			}
			for k, v := range small.Targets {
				if big.Targets[k] < v-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Congress dominates Senate and House floors up to the scale
// factor — every group's Congress target is at least f times both its
// House and Senate targets.
func TestCongressDominatesFloorsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cube := datacube.MustNew([]string{"A", "B"})
		for i := 0; i < 100+rng.Intn(300); i++ {
			cube.Add(datacube.GroupID{
				"a" + strconv.Itoa(rng.Intn(4)),
				"b" + strconv.Itoa(rng.Intn(2)),
			})
		}
		x := 10 + rng.Intn(90)
		congress, err := Allocate(Congress, cube, x)
		if err != nil {
			return false
		}
		house, _ := Allocate(House, cube, x)
		senate, _ := Allocate(Senate, cube, x)
		for k, v := range congress.Targets {
			if v < congress.ScaleDown*house.Targets[k]-1e-9 {
				return false
			}
			if v < congress.ScaleDown*senate.Targets[k]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: integer targets always sum to min(X, total population) and
// never exceed per-group populations.
func TestIntegerTargetsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cube := datacube.MustNew([]string{"A", "B"})
		total := 0
		pops := map[string]int64{}
		for a := 0; a < 1+rng.Intn(4); a++ {
			for b := 0; b < 1+rng.Intn(4); b++ {
				n := 1 + rng.Intn(50)
				id := datacube.GroupID{"a" + strconv.Itoa(a), "b" + strconv.Itoa(b)}
				for i := 0; i < n; i++ {
					cube.Add(id)
				}
				pops[id.Key()] = int64(n)
				total += n
			}
		}
		x := 1 + rng.Intn(total+20)
		strat := Strategies[rng.Intn(len(Strategies))]
		alloc, err := Allocate(strat, cube, x)
		if err != nil {
			return false
		}
		ints := alloc.IntegerTargets(pops)
		sum := 0
		for k, v := range ints {
			if v < 0 || int64(v) > pops[k] {
				return false
			}
			sum += v
		}
		want := x
		if total < x {
			want = total
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
