package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// snapshotDigest hashes a snapshot's strata in key order: each stratum's
// key and population, then its items in order.
func snapshotDigest(st *sample.Stratified[engine.Row]) string {
	h := sha256.New()
	keys := st.Keys()
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		s, _ := st.Get(k)
		buf = append(buf[:0], k...)
		buf = binary.AppendVarint(buf, s.Population)
		buf = binary.AppendUvarint(buf, uint64(len(s.Items)))
		for _, row := range s.Items {
			for _, v := range row {
				buf = v.AppendGroupKey(buf)
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMaintainerSnapshotDigest pins the sample every maintainer kind
// draws from a fixed seed and insert stream. The stream introduces every
// group before the skewed body, so no step depends on map iteration
// order. A refactor of the maintainers' bookkeeping must leave every
// random draw, and so every digest, unchanged.
func TestMaintainerSnapshotDigest(t *testing.T) {
	want := map[string]string{
		KindHouse:         "6a430544adc62c23b49b13664fd1f9aed6e7392d0aa77eb8bb549c384df963ed",
		KindSenate:        "48e4665e13133cb8706a5fcf9a09af64027544e96f59e44b7ab38aa341819dcc",
		KindBasicCongress: "dd81f81c883960e7afc9c782bed52ed3034070fc6ea5f642274f020b4e9ac6fd",
		KindCongress:      "75a7f2f8ca4027823e28b7f9cb402be480f075ae109874e382e29f1c8daaec4c",
		KindCongressDelta: "5da87b1feca9f2726321fbc106b71d8358b7a4eb7694d7f16dc7abb6a2644bf5",
	}
	g := streamGrouping(t)
	var rows []engine.Row
	for a := 0; a < 8; a++ {
		for b := 0; b < 5; b++ {
			rows = append(rows, streamRow("a"+strconv.Itoa(a), "b"+strconv.Itoa(b), -1))
		}
	}
	rows = append(rows, skewedStream(3000, 11)...)
	for _, m := range newMaintainers(t, g, 21) {
		for _, row := range rows {
			m.Insert(row)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		kind := m.ExportState().Kind
		if got := snapshotDigest(snap); got != want[kind] {
			t.Errorf("%s: snapshot digest %s, want %s", kind, got, want[kind])
		}
	}
}

// countingSource counts the steps drawn from a math/rand source, so a
// second generator can be advanced to the same position.
type countingSource struct {
	src rand.Source64
	n   int
}

func (s *countingSource) Int63() int64    { s.n++; return s.src.Int63() }
func (s *countingSource) Uint64() uint64  { s.n++; return s.src.Uint64() }
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// lateGroupStream introduces four groups, then interleaves a skewed
// body over the groups seen so far with one new group every 300 rows.
// The late groups' keys sort between and before the early ones, so slot
// order differs from key order.
func lateGroupStream(n int, seed int64) []engine.Row {
	order := []int{5, 7, 2, 9, 0, 8, 1, 6, 3, 4, 11, 10}
	rng := rand.New(rand.NewSource(seed))
	live := 4
	rows := make([]engine.Row, 0, n)
	for i := 0; i < live; i++ {
		rows = append(rows, streamRow("g"+strconv.Itoa(order[i]), "x", int64(len(rows))))
	}
	for len(rows) < n {
		if len(rows)%300 == 0 && live < len(order) {
			rows = append(rows, streamRow("g"+strconv.Itoa(order[live]), "x", int64(len(rows))))
			live++
			continue
		}
		g := order[rng.Intn(1+rng.Intn(live))]
		rows = append(rows, streamRow("g"+strconv.Itoa(g), "x", int64(len(rows))))
	}
	return rows
}

// TestSenateShrinkOrderDeterministic pins the order in which Senate's
// shrinkAll visits reservoirs when a late group lowers everyone's
// target and several full reservoirs shrink in one pass (each shrink
// draws its victims from the shared RNG, so the visiting order decides
// the sample). Two maintainers fed the same seeded stream must draw the
// same sample, and so must one restored from the first one's exported
// state partway through, given an RNG at the same position: restore
// keeps the slot order live insertion gave.
func TestSenateShrinkOrderDeterministic(t *testing.T) {
	const (
		budget = 60
		seed   = 5
	)
	g := streamGrouping(t)
	rows := lateGroupStream(3000, 17)
	newSenate := func(src rand.Source) *SenateMaintainer {
		m, err := NewSenateMaintainer(g, nil, budget, rand.New(src))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	first := newSenate(src)
	second := newSenate(rand.NewSource(seed))

	// Restore right after the fifth group arrives: its shrinkAll lowered
	// every reservoir's capacity, so no reservoir holds a pending skip
	// count (which the exported state does not carry).
	cut := 300
	var restored StatefulMaintainer
	multiShrinks := 0
	for i, row := range rows {
		if first.cube.NumSlots() > 0 {
			if _, seen := first.cube.Lookup(g.AppendKey(nil, row)); !seen {
				newT := budget / (len(first.groups) + 1)
				over := 0
				for _, res := range first.groups {
					if res.Len() > newT {
						over++
					}
				}
				if over >= 2 && i > cut {
					multiShrinks++
				}
			}
		}
		first.Insert(row)
		second.Insert(row)
		if restored != nil {
			restored.Insert(row)
		}
		if i == cut {
			if n := len(first.groups); n != 5 {
				t.Fatalf("cut after %d groups, want 5", n)
			}
			at := rand.NewSource(seed).(rand.Source64)
			for j := 0; j < src.n; j++ {
				at.Uint64()
			}
			var err error
			if restored, err = RestoreMaintainer(first.ExportState(), streamSchema(), rand.New(at)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if multiShrinks < 3 {
		t.Fatalf("only %d late groups shrank several full reservoirs after the cut; the stream does not exercise shrinkAll's order", multiShrinks)
	}
	digests := make([]string, 3)
	for i, m := range []Maintainer{first, second, restored} {
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = snapshotDigest(snap)
	}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		t.Fatalf("snapshot digests differ: live %s, second live %s, restored %s", digests[0], digests[1], digests[2])
	}
	// Pins the visiting order itself (finest-key order), not only its
	// reproducibility.
	if want := "2bf2164de96c0d838040b5872641c51316c81464286d5fdbc47851d387f4d68c"; digests[0] != want {
		t.Errorf("snapshot digest %s, want %s", digests[0], want)
	}
}
