package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"github.com/approxdb/congress/internal/engine"
)

// newMaintainers returns one maintainer of every kind over g, each with
// its own RNG seeded by seed.
func newMaintainers(t *testing.T, g *Grouping, seed int64) []StatefulMaintainer {
	t.Helper()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	hm, err1 := NewHouseMaintainer(g, 40, rng())
	sm, err2 := NewSenateMaintainer(g, 40, rng())
	bm, err3 := NewBasicCongressMaintainer(g, 40, rng())
	cm, err4 := NewCongressMaintainer(g, 40, rng())
	dm, err5 := NewCongressDeltaMaintainer(g, 40, rng())
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return []StatefulMaintainer{hm, sm, bm, cm, dm}
}

// skewedStream draws n rows over a few dozen groups with a heavy head,
// so reservoirs evict and small groups spill into delta samples.
func skewedStream(n int, seed int64) []engine.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]engine.Row, n)
	for i := range rows {
		a := rng.Intn(1 + rng.Intn(8))
		b := rng.Intn(1 + rng.Intn(5))
		rows[i] = streamRow("a"+strconv.Itoa(a), "b"+strconv.Itoa(b), int64(i))
	}
	return rows
}

// TestMaintainerStateRoundTrip exports every maintainer kind after a
// skewed stream, restores it, and requires the restored maintainer to
// export the same state; the restored maintainer must keep accepting
// inserts, new groups included.
func TestMaintainerStateRoundTrip(t *testing.T) {
	g := streamGrouping(t)
	rows := skewedStream(3000, 4)
	for _, m := range newMaintainers(t, g, 8) {
		for _, row := range rows {
			m.Insert(row)
		}
		st := m.ExportState()
		if (st.Kind == KindBasicCongress || st.Kind == KindCongressDelta) && (len(st.Delta) == 0 || len(st.X) == 0) {
			t.Fatalf("%s: stream left no delta samples (%d) or reservoir counts (%d) to round-trip", st.Kind, len(st.Delta), len(st.X))
		}
		restored, err := RestoreMaintainer(st, streamSchema(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", st.Kind, err)
		}
		if again := restored.ExportState(); !reflect.DeepEqual(st, again) {
			t.Errorf("%s: restored state differs from the exported one", st.Kind)
		}
		for i := 0; i < 200; i++ {
			restored.Insert(streamRow("new"+strconv.Itoa(i%7), "b0", int64(i)))
		}
		snap, err := restored.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot after restore: %v", st.Kind, err)
		}
		if got, want := snap.Population(), int64(len(rows)+200); got != want {
			t.Errorf("%s: population %d after restore and inserts, want %d", st.Kind, got, want)
		}
	}
}

// TestInsertKeyedMatchesInsert feeds the same stream through Insert and
// through InsertKeyed with Grouping.AppendKey keys: with equal seeds the
// two maintainers of each kind must end in the same state.
func TestInsertKeyedMatchesInsert(t *testing.T) {
	g := streamGrouping(t)
	rows := skewedStream(2000, 6)
	plain, keyed := newMaintainers(t, g, 3), newMaintainers(t, g, 3)
	var key []byte
	for i := range plain {
		for _, row := range rows {
			plain[i].Insert(row)
			key = g.AppendKey(key[:0], row)
			keyed[i].InsertKeyed(row, key)
		}
		if a, b := plain[i].ExportState(), keyed[i].ExportState(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: InsertKeyed state differs from Insert state", a.Kind)
		}
	}
}
