package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
