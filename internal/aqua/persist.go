package aqua

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// SynopsisState is the serializable state of one Synopsis for durable
// warehouse snapshots: its configuration, the allocation that sized it,
// the materialized stratified sample, and the incremental maintainer's
// complete state. Together with the base relations this reconstructs a
// synopsis whose approximate answers match the exported one exactly
// (the sample rows are identical; only future randomness differs, since
// RNG state is reseeded on restore).
type SynopsisState struct {
	Config  Config
	Alloc   *core.Allocation
	ID      uint64
	Epoch   uint64
	Pending int64
	// Strata is the materialized sample snapshot, sorted by stratum key.
	Strata []*sample.Stratum[engine.Row]
	// Maintainer is the incremental maintainer's state, with the
	// synopsis's group cube. The cube keeps its measures only when they
	// were proven synchronized at export time; a count-only cube — and
	// a snapshot written before the maintainer's cube carried measures —
	// restores a synopsis with hybrid answering disabled until it is
	// rebuilt; everything else works.
	Maintainer *core.MaintainerState
}

// ExportState captures the synopsis's serializable state. The export is
// a consistent cut: it runs under the synopsis lock, so no maintainer
// feed or refresh can interleave.
func (s *Synopsis) ExportState() (*SynopsisState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sm, ok := s.maintainer.(core.StatefulMaintainer)
	if !ok {
		return nil, fmt.Errorf("aqua: synopsis %q maintainer %T does not support state export", s.cfg.Table, s.maintainer)
	}
	st := &SynopsisState{
		Config:     s.cfg,
		Alloc:      s.alloc,
		ID:         s.id,
		Epoch:      s.epoch.Load(),
		Pending:    s.pending,
		Maintainer: sm.ExportState(),
	}
	if !s.hybrid || s.exactEpoch.Load() != s.epoch.Load() {
		st.Maintainer.Cube.DropMeasures()
	}
	s.sample.Each(func(str *sample.Stratum[engine.Row]) {
		st.Strata = append(st.Strata, &sample.Stratum[engine.Row]{
			Key:        str.Key,
			Population: str.Population,
			Items:      append([]engine.Row(nil), str.Items...),
		})
	})
	return st, nil
}

// ExportStates captures every registered synopsis, sorted by base table
// name.
func (a *Aqua) ExportStates() ([]*SynopsisState, error) {
	var out []*SynopsisState
	for _, s := range a.Synopses() {
		st, err := s.ExportState()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// RestoreSynopsis reconstructs a synopsis from exported state and
// registers it (and its sample relations) with the catalog. The base
// relation must already be restored. The synopsis's epoch is set
// strictly above the exported epoch so any cached answer keyed by a
// pre-export epoch can never be served against post-recovery state.
func (a *Aqua) RestoreSynopsis(st *SynopsisState) (*Synopsis, error) {
	if st == nil {
		return nil, fmt.Errorf("aqua: nil synopsis state")
	}
	cfg := st.Config
	rel, ok := a.cat.Lookup(cfg.Table)
	if !ok {
		return nil, fmt.Errorf("aqua: restoring synopsis: %w %q", ErrUnknownTable, cfg.Table)
	}
	g, err := core.NewGrouping(rel.Schema, cfg.GroupCols)
	if err != nil {
		return nil, err
	}
	if st.Alloc == nil {
		return nil, fmt.Errorf("aqua: synopsis state for %q has no allocation", cfg.Table)
	}
	// Reseed restore-side randomness from the wall clock so repeated
	// restarts do not replay the same post-recovery coin flips (the
	// build-time cfg.Seed already fixed the sample itself, which is
	// restored verbatim).
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(st.ID)<<20))
	maint, err := core.RestoreMaintainer(st.Maintainer, rel.Schema, rng)
	if err != nil {
		return nil, fmt.Errorf("aqua: restoring synopsis for %q: %w", cfg.Table, err)
	}
	if !slices.Equal(maint.Cube().Attrs(), g.Attrs) {
		return nil, fmt.Errorf("aqua: restoring synopsis for %q: maintainer groups by %v, synopsis by %v", cfg.Table, maint.Cube().Attrs(), g.Attrs)
	}

	smpl := sample.NewStratified[engine.Row]()
	for _, str := range st.Strata {
		for _, row := range str.Items {
			if len(row) != len(rel.Schema.Cols) {
				return nil, fmt.Errorf("aqua: restoring synopsis for %q: sampled row has %d columns, table has %d", cfg.Table, len(row), len(rel.Schema.Cols))
			}
		}
		smpl.Put(&sample.Stratum[engine.Row]{
			Key:        str.Key,
			Population: str.Population,
			Items:      append([]engine.Row(nil), str.Items...),
		})
	}
	if err := smpl.Validate(); err != nil {
		return nil, fmt.Errorf("aqua: restoring synopsis for %q: %w", cfg.Table, err)
	}

	s := &Synopsis{
		cfg:        cfg,
		grouping:   g,
		alloc:      st.Alloc,
		tel:        a.tel,
		id:         st.ID,
		sample:     smpl,
		pending:    st.Pending,
		maintainer: maint,
	}
	if err := s.bindMeasures(rel.Schema); err != nil {
		return nil, err
	}
	s.epoch.Store(st.Epoch + 1)
	// Measures travel only in a state exported while they were fresh, so
	// they are synchronized with the snapshot's data cut and hence with
	// the restored relation — WAL records replayed after this restore
	// feed them through the normal insert path.
	if s.hybrid {
		s.exactEpoch.Store(st.Epoch + 1)
	}
	bumpSynopsisSeq(st.ID)
	s.nameTables()
	if err := s.materialize(a.cat, rel.Schema); err != nil {
		return nil, err
	}

	a.mu.Lock()
	a.synopses[strings.ToLower(cfg.Table)] = s
	a.mu.Unlock()
	return s, nil
}

// bumpSynopsisSeq raises the process-wide synopsis id sequence to at
// least id, so synopses created after a restore never collide with
// restored ids in cache keys.
func bumpSynopsisSeq(id uint64) {
	for {
		cur := synopsisSeq.Load()
		if cur >= id {
			return
		}
		if synopsisSeq.CompareAndSwap(cur, id) {
			return
		}
	}
}
