package core

import (
	"bytes"
	"encoding/gob"
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
	hm, err1 := NewHouseMaintainer(g, nil, 40, rng())
	sm, err2 := NewSenateMaintainer(g, nil, 40, rng())
	bm, err3 := NewBasicCongressMaintainer(g, nil, 40, rng())
	cm, err4 := NewCongressMaintainer(g, nil, 40, rng())
	dm, err5 := NewCongressDeltaMaintainer(g, nil, 40, rng())
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

// TestRestoreRejectsCubeAttrMismatch: a state whose cube is over other
// attributes than the maintainer's grouping must fail to restore, not
// restore into a maintainer whose first insert panics.
func TestRestoreRejectsCubeAttrMismatch(t *testing.T) {
	g := streamGrouping(t)
	narrow := MustGrouping(streamSchema(), []string{"a"})
	for i, m := range newMaintainers(t, g, 2) {
		other := newMaintainers(t, narrow, 2)[i]
		for _, row := range skewedStream(200, 3) {
			m.Insert(row)
			other.Insert(row)
		}
		st := m.ExportState()
		st.Cube = other.ExportState().Cube
		if _, err := RestoreMaintainer(st, streamSchema(), rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s: restored a state grouping by %v over a cube over %v", st.Kind, st.Attrs, narrow.Attrs)
		}
	}
}

// legacyFormat rewrites a state the way maintainers wrote it before they
// shared the synopsis cube: house, senate and basic congress carried
// per-group populations in Pops and no cube; the Congress kinds already
// carried a count-only cube.
func legacyFormat(st *MaintainerState) *MaintainerState {
	old := *st
	switch st.Kind {
	case KindHouse, KindSenate, KindBasicCongress:
		old.Pops = make(map[string]int64)
		for _, gc := range st.Cube.Groups {
			old.Pops[gc.ID.Key()] = gc.Count
		}
		old.Cube = nil
	}
	return &old
}

// TestRestoreLegacyStates: every kind's state in the older format
// restores to the same maintainer as the current format does — same
// state, and the same strata, populations and sampled rows under the
// same seed.
func TestRestoreLegacyStates(t *testing.T) {
	g := streamGrouping(t)
	rows := skewedStream(3000, 9)
	for _, m := range newMaintainers(t, g, 5) {
		for _, row := range rows {
			m.Insert(row)
		}
		st := m.ExportState()
		old := legacyFormat(st)
		if (st.Kind == KindHouse || st.Kind == KindSenate || st.Kind == KindBasicCongress) && (old.Cube != nil || len(old.Pops) == 0) {
			t.Fatalf("%s: legacy state has no populations", st.Kind)
		}
		cur, err := RestoreMaintainer(st, streamSchema(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", st.Kind, err)
		}
		legacy, err := RestoreMaintainer(old, streamSchema(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: legacy format: %v", st.Kind, err)
		}
		if a, b := cur.ExportState(), legacy.ExportState(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: legacy restore exports a different state", st.Kind)
		}
		if legacy.SeenCount() != int64(len(rows)) {
			t.Errorf("%s: legacy restore saw %d tuples, want %d", st.Kind, legacy.SeenCount(), len(rows))
		}
		a, err := cur.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := legacy.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if da, db := snapshotDigest(a), snapshotDigest(b); da != db {
			t.Errorf("%s: legacy snapshot digest %s, current format %s", st.Kind, db, da)
		}
		if b.Population() != int64(len(rows)) {
			t.Errorf("%s: legacy snapshot population %d, want %d", st.Kind, b.Population(), len(rows))
		}
	}
}

// TestRestoreRejectsMalformedStates: restore is the gate for snapshot
// bytes fetched from another node, so each inconsistency a maintainer
// never writes must fail the restore instead of a later insert.
func TestRestoreRejectsMalformedStates(t *testing.T) {
	g := streamGrouping(t)
	exported := map[string]*MaintainerState{}
	for _, m := range newMaintainers(t, g, 4) {
		for _, row := range skewedStream(500, 5) {
			m.Insert(row)
		}
		exported[m.ExportState().Kind] = m.ExportState()
	}
	cases := []struct {
		name, kind string
		corrupt    func(st *MaintainerState)
	}{
		{"short reservoir row", KindHouse, func(st *MaintainerState) { st.Reservoir.Items[0] = st.Reservoir.Items[0][:1] }},
		{"reservoir seen disagrees with the cube", KindBasicCongress, func(st *MaintainerState) { st.Reservoir.Seen += 1 << 40 }},
		{"group reservoir seen disagrees with the cube", KindSenate, func(st *MaintainerState) {
			for _, rs := range st.Groups {
				rs.Seen++
				break
			}
		}},
		{"group without a reservoir", KindSenate, func(st *MaintainerState) {
			for k := range st.Groups {
				delete(st.Groups, k)
				break
			}
		}},
		{"undecodable group key", KindCongressDelta, func(st *MaintainerState) {
			gc := &st.Cube.Groups[0]
			gc.ID = append(gc.ID[:0:0], "not-a-key", gc.ID[1])
			gc.Key = gc.ID.Key()
		}},
		{"slot keyed apart from its parts", KindCongress, func(st *MaintainerState) { st.Cube.Groups[0].Key = "elsewhere" }},
		{"delta group absent from the cube", KindCongressDelta, func(st *MaintainerState) { st.Delta["nowhere"] = nil }},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(exported[c.kind]); err != nil {
			t.Fatal(err)
		}
		var st MaintainerState
		if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
			t.Fatal(err)
		}
		c.corrupt(&st)
		if _, err := RestoreMaintainer(&st, streamSchema(), rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s: %s state restored", c.name, c.kind)
		}
	}
}
