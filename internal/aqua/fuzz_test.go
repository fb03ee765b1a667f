package aqua

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// FuzzRestoreSynopsis feeds arbitrary bytes through the path a follower
// runs on a snapshot it fetched: gob-decode a SynopsisState, restore it
// over a fixed base table, then insert one row and read the hybrid path.
// Each step must return or fail; none may panic or hang. The seeds are
// the exported states of all five maintainer kinds.
func FuzzRestoreSynopsis(f *testing.F) {
	for _, cfg := range strategyConfigs(20) {
		s, err := New(salesCatalog(f, 60)).CreateSynopsis(cfg)
		if err != nil {
			f.Fatal(err)
		}
		st, err := s.ExportState()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// encoding/gob sizes a nil map from its encoded element count
		// before reading any element, so a few mutated bytes can demand
		// gigabytes; into an existing map it only inserts what the input
		// holds. Every map of the state therefore exists before decoding:
		// the target is the restore path, not gob's allocator.
		st := SynopsisState{
			Alloc: &core.Allocation{Targets: map[string]float64{}, PreScale: map[string]float64{}},
			Maintainer: &core.MaintainerState{
				Groups: map[string]*sample.ReservoirState[engine.Row]{},
				Pops:   map[string]int64{},
				X:      map[string]int{},
				Delta:  map[string][]engine.Row{},
			},
		}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			return
		}
		s, err := New(salesCatalog(t, 60)).RestoreSynopsis(&st)
		if err != nil {
			return
		}
		s.Insert(salesRow("r1", "p0", 1.5, 2))
		s.ExactPartials([]int{0}, 2)
	})
}
