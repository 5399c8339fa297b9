package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ccf/internal/core"
	"ccf/internal/obs/trace"
	"ccf/internal/shard"
)

// A fold collapses a grown filter ladder back into a single right-sized
// filter, so steady-state read cost returns to one level. The ladder
// itself cannot do this: its entries are fingerprints, and the extra
// bucket-index bits a bigger table needs were discarded at insert time.
// The store still has the original rows — every accepted mutation is a
// WAL record, and fold-capable filters retain their whole log history
// (see Filter.cleanup) — so a fold replays that history into a fresh
// filter sized for the current row count and swaps it in through the
// live filter's Restore. The fresh filter has the live one's shard count,
// seed and NumAttrs (newFoldTarget), which Restore requires, and the same
// rows. The swap runs under the barrier's write lock, which every durable
// insert, delete and grow holds for reading across its append and apply,
// so no acked row reaches the old contents after the catch-up replay. A
// read that straddles the swap sees each shard before or after it; both
// hold every row, so neither side gives a false negative.
//
// Replay semantics: the history is read oldest→newest starting from the
// last Create/Restore record (those carry full snapshots and reset the
// filter's contents); Insert/InsertBatch/Delete records apply to the
// fresh filter; Grow records are skipped (the fresh filter is right-
// sized); Fold records are skipped too — a fold snapshot is derived
// state, row-equivalent to the organic records before it, and replaying
// it would smuggle unresizable fingerprints into the rebuild. A base
// snapshot with rows in it (a Restore of a pre-built filter) cannot be
// right-sized for the same reason, so such filters report
// ErrFoldUnavailable until a later empty Create/Restore resets them.

// ErrFoldUnavailable reports a filter whose WAL history cannot produce a
// fold: the base snapshot carries pre-built rows (only fingerprints, not
// resizable), or history before the retained log is missing.
var ErrFoldUnavailable = errors.New("store: fold unavailable: WAL history does not reach an empty base snapshot")

// errFoldRaced reports a Create/Restore/Drop that slipped in between the
// fold's bulk replay and its catch-up; the fold is abandoned, not failed.
var errFoldRaced = errors.New("store: fold raced a restore; abandoned")

// RequestFold hands the filter to the background fold worker. Duplicate
// requests coalesce; a full queue drops the request (the policy layer
// re-arms on the next insert).
func (fl *Filter) RequestFold() {
	fl.RequestFoldFrom(trace.ID{})
}

// RequestFoldFrom is RequestFold remembering the triggering request's
// trace ID, so the fold's span and log lines correlate back to the
// insert that armed it.
func (fl *Filter) RequestFoldFrom(origin trace.ID) {
	if !fl.foldPending.CompareAndSwap(false, true) {
		return
	}
	if !origin.IsZero() {
		fl.foldOriginHi.Store(origin.Hi)
		fl.foldOriginLo.Store(origin.Lo)
	}
	select {
	case fl.st.foldCh <- fl:
		fl.st.metrics.FoldsScheduled.Inc()
	default:
		fl.foldPending.Store(false)
	}
}

// sortedWALFiles lists the filter directory's WAL files by start
// sequence.
func sortedWALFiles(dir string) ([]walFileRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wals []walFileRef
	for _, e := range entries {
		if start, ok := parseWALFileName(e.Name()); ok {
			wals = append(wals, walFileRef{start, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].start < wals[j].start })
	return wals, nil
}

// foldTarget holds the fresh filter a fold replays into; a Create or
// Restore record mid-history resets it to a brand-new target.
type foldTarget struct {
	sf *shard.ShardedFilter
}

// foldReplay applies the organic records with lo < seq ≤ hi to the fold
// target. allowReset permits Create/Restore records to reset the base
// (after verifying their snapshot is empty); without it they abort with
// errFoldRaced (the catch-up phase, where a reset means the fold lost a
// race).
func (fl *Filter) foldReplay(t *foldTarget, lo, hi uint64,
	allowReset bool) (lastSeq uint64, err error) {
	files, err := sortedWALFiles(fl.dir)
	if err != nil {
		return 0, err
	}
	lastSeq = lo
	baseSeen := lo > 0 // the catch-up phase continues an established base
	for fi, wf := range files {
		// Skip files wholly covered by lo (file fi ends where fi+1 starts);
		// the catch-up phase only re-reads the active tail this way.
		if fi+1 < len(files) && files[fi+1].start <= lo+1 {
			continue
		}
		path := wf.path
		_, _, tailErr, err := scanWALFile(path, func(rec walRecord) error {
			if rec.seq > hi {
				return errStopReplay
			}
			if rec.seq > lastSeq {
				lastSeq = rec.seq
			}
			if rec.seq <= lo {
				return nil
			}
			switch rec.typ {
			case recCreate, recRestore:
				if !allowReset {
					return errFoldRaced
				}
				base, ferr := shard.FromSnapshot(rec.body)
				if ferr != nil {
					return fmt.Errorf("store: fold: base snapshot at seq %d: %w", rec.seq, ferr)
				}
				if base.Stats().Rows != 0 {
					return fmt.Errorf("%w: base snapshot at seq %d carries %d pre-built rows",
						ErrFoldUnavailable, rec.seq, base.Stats().Rows)
				}
				f, ferr := fl.newFoldTarget()
				if ferr != nil {
					return ferr
				}
				t.sf = f
				baseSeen = true
			case recDrop:
				return errFoldRaced
			case recGrow, recFold:
				// Structural / derived records: the fresh filter is
				// right-sized, and fold snapshots must not re-enter.
			case recInsert, recDelete:
				if !baseSeen {
					return ErrFoldUnavailable
				}
				key, attrs, _, derr := decodeRow(rec.body)
				if derr != nil {
					return fmt.Errorf("store: fold: corrupt row at seq %d: %w", rec.seq, derr)
				}
				if rec.typ == recInsert {
					if ierr := foldInsert(t.sf, key, attrs); ierr != nil {
						return fmt.Errorf("store: fold: replaying row at seq %d: %w", rec.seq, ierr)
					}
				} else {
					t.sf.Delete(key, attrs) // ErrNotFound et al. are benign on replay
				}
			case recInsertBatch:
				if !baseSeen {
					return ErrFoldUnavailable
				}
				berr := eachBatchRow(rec.body, func(key uint64, attrs []uint64) error {
					return foldInsert(t.sf, key, attrs)
				})
				if berr != nil {
					return fmt.Errorf("store: fold: replaying batch at seq %d: %w", rec.seq, berr)
				}
			default:
				return fmt.Errorf("store: fold: unknown record type %d at seq %d", rec.typ, rec.seq)
			}
			return nil
		})
		if err != nil {
			return lastSeq, err
		}
		// A torn tail below the target sequence means history is missing;
		// at or past it, the tail is concurrent append traffic we were
		// never going to read.
		if tailErr != nil && lastSeq < hi {
			return lastSeq, fmt.Errorf("%w: %s: %v", ErrFoldUnavailable, filepath.Base(path), tailErr)
		}
		if lastSeq >= hi {
			break
		}
	}
	if lastSeq < hi {
		return lastSeq, fmt.Errorf("%w: history ends at seq %d, need %d", ErrFoldUnavailable, lastSeq, hi)
	}
	return lastSeq, nil
}

// foldInsert applies one replayed row to the fold target, distinguishing
// benign outcomes from row loss. Unlike crash recovery — which replays
// onto the exact pre-crash state, where every error faithfully
// reproduces the original one — the fold target is a different (smaller)
// geometry, so an ErrFull here means a row that IS in the live filter
// would be missing from the rebuild: swapping that in would manufacture
// false negatives, and the fold must abort instead. ErrChainLimit is
// acceptable: the discarded row's chain stays conservative-true, so the
// guarantee holds.
func foldInsert(sf *shard.ShardedFilter, key uint64, attrs []uint64) error {
	err := sf.Insert(key, attrs)
	if err == nil || errors.Is(err, core.ErrChainLimit) {
		return nil
	}
	return err
}

// newFoldTarget builds the fresh right-sized filter a fold replays into:
// same shard count, seed and variant as the live filter, capacity sized
// for its current row count, same elastic budget for future growth.
func (fl *Filter) newFoldTarget() (*shard.ShardedFilter, error) {
	live := fl.Live()
	p := live.Params()
	p.Buckets = 0
	rows := live.Stats().Rows
	if rows < 1 {
		rows = 1
	}
	p.Capacity = rows
	return shard.New(shard.Options{
		Shards:   live.Shards(),
		AutoGrow: live.AutoGrow(),
		Params:   p,
	})
}

// Fold rebuilds a single right-sized filter from WAL replay and swaps it
// into the live ShardedFilter via its Restore path. The bulk of the
// replay runs with traffic flowing; writers are paused only for the
// catch-up of records appended during the bulk phase, the Fold record
// append, and the swap itself. A checkpoint is scheduled right away so
// the folded state moves into a segment.
//
// Fold classifies the run for the store's metrics: completed, abandoned
// because a Create/Restore/Drop raced it (not an error — the caller sees
// nil, as before), unavailable history, or a hard error.
func (fl *Filter) Fold() error {
	m := &fl.st.metrics
	start := time.Now()
	origin := takeOrigin(&fl.foldOriginHi, &fl.foldOriginLo)
	bg := fl.st.opts.Tracer.StartBackground(trace.PhaseFold, origin)
	err := fl.fold(bg.TraceID())
	switch {
	case err == nil:
		m.FoldsCompleted.Inc()
		m.LastFoldSeconds.Set(time.Since(start).Seconds())
		bg.Attr(trace.AttrRows, int64(fl.Live().Stats().Rows)).End()
	case errors.Is(err, errFoldRaced):
		m.FoldsAbortedRaced.Inc()
		bg.End()
		fl.st.logf("store: fold of %q abandoned: %v", fl.name, err)
		return nil
	case errors.Is(err, ErrFoldUnavailable):
		m.FoldsAbortedUnavailable.Inc()
		bg.End()
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDegraded):
		// Shutdown or a degraded filter: not an abort worth alerting on
		// (degradation already fired its own transition metrics and log).
	default:
		m.FoldsAbortedError.Inc()
		bg.End()
	}
	return err
}

func (fl *Filter) fold(traceID trace.ID) error {
	fl.ckptMu.Lock()
	defer fl.ckptMu.Unlock()
	if err := fl.rejectIfDegraded(); err != nil {
		// A fold must append its Fold record, which the poisoned log
		// cannot take; don't waste the replay work.
		return err
	}

	// Phase 1: pin the durable prefix and replay it into a fresh filter
	// with writers running.
	fl.barrier.Lock()
	if fl.closed {
		fl.barrier.Unlock()
		return ErrClosed
	}
	s1 := fl.seq
	if err := fl.flush(); err != nil {
		fl.barrier.Unlock()
		return err
	}
	fl.barrier.Unlock()

	fresh, err := fl.newFoldTarget()
	if err != nil {
		return err
	}
	t := &foldTarget{sf: fresh}
	if _, err := fl.foldReplay(t, 0, s1, true); err != nil {
		return err
	}

	// Phase 2: pause writers, catch up the records appended since, and
	// swap. A Create/Restore/Drop that landed in between abandons the
	// fold — the history it replayed no longer describes the live filter.
	fl.barrier.Lock()
	if fl.closed {
		fl.barrier.Unlock()
		return ErrClosed
	}
	if err := fl.flush(); err != nil {
		fl.barrier.Unlock()
		return err
	}
	if _, err := fl.foldReplay(t, s1, fl.seq, false); err != nil {
		fl.barrier.Unlock()
		return err // errFoldRaced is classified (and swallowed) by Fold
	}
	snap, err := t.sf.Snapshot()
	if err != nil {
		fl.barrier.Unlock()
		return err
	}
	seq, err := fl.append(recFold, func(b []byte) []byte { return append(b, snap...) })
	if err != nil {
		fl.barrier.Unlock()
		return err
	}
	if err := fl.Live().Restore(snap); err != nil {
		fl.barrier.Unlock()
		return fmt.Errorf("store: fold of %q: installing folded filter: %w", fl.name, err)
	}
	fl.barrier.Unlock()
	fl.folds.Add(1)
	if err := fl.commit(seq); err != nil {
		return err
	}
	st := t.sf.Stats()
	if !traceID.IsZero() {
		fl.st.logf("store: folded %q to %d rows in %d shard(s), %d levels, load %.2f (seq %d) trace=%s",
			fl.name, st.Rows, st.Shards, st.MaxLevels, st.LoadFactor, seq, traceID.String())
	} else {
		fl.st.logf("store: folded %q to %d rows in %d shard(s), %d levels, load %.2f (seq %d)",
			fl.name, st.Rows, st.Shards, st.MaxLevels, st.LoadFactor, seq)
	}
	fl.requestCheckpointFrom(traceID)
	return nil
}
