package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ccf/internal/shard"
)

// recoverAll scans the filters directory and rebuilds every filter found
// there. Unrecoverable directories (no valid segment and no Create
// record) are left on disk for inspection but skipped; half-dropped
// tombstones are deleted.
func (s *Store) recoverAll() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".dropped") {
			os.RemoveAll(filepath.Join(s.dir, e.Name()))
			continue
		}
		name, ok := filterNameFromDir(e.Name())
		if !ok {
			s.logf("store: ignoring unrecognized directory %q", e.Name())
			continue
		}
		fl, err := s.recoverFilter(name, filepath.Join(s.dir, e.Name()))
		if err != nil {
			return err
		}
		if fl == nil {
			continue
		}
		s.filters[name] = fl
		s.stats.Filters++
	}
	return nil
}

// recoverFilter rebuilds one filter: load the newest valid segment
// (falling back a generation past torn or corrupt ones), replay the WAL
// tail with seq above the checkpoint through the normal ShardedFilter
// paths, truncate any torn tail, and open a fresh log for new appends.
// Returns (nil, nil) when the directory holds nothing recoverable or the
// filter was logically dropped.
func (s *Store) recoverFilter(name, dir string) (*Filter, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segGens []uint64
	var wals []walFileRef
	for _, e := range entries {
		if gen, ok := parseSegFileName(e.Name()); ok {
			segGens = append(segGens, gen)
		} else if start, ok := parseWALFileName(e.Name()); ok {
			wals = append(wals, walFileRef{start, filepath.Join(dir, e.Name())})
		} else if filepath.Ext(e.Name()) == ".tmp" {
			os.Remove(filepath.Join(dir, e.Name())) // mid-checkpoint crash leftovers
		}
	}
	sort.Slice(segGens, func(i, j int) bool { return segGens[i] > segGens[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i].start < wals[j].start })
	s.stats.WALFiles += len(wals)

	// Prefer the manifest's generation, then every other generation newest
	// first: a crash between segment rename and manifest switch leaves a
	// newer valid segment the manifest doesn't know about yet, and a
	// bit-flipped newest segment must fall back to its predecessor.
	var order []uint64
	if man, err := readManifest(dir); err == nil {
		order = append(order, man.Gen)
	} else if !os.IsNotExist(err) {
		s.logf("store: %q: %v (falling back to segment scan)", name, err)
	}
	for _, g := range segGens {
		if len(order) == 0 || g != order[0] {
			order = append(order, g)
		}
	}

	var sf *shard.ShardedFilter
	var ckptSeq, gen uint64
	for _, g := range order {
		path := filepath.Join(dir, segFileName(g))
		seq, payload, err := loadSegment(path, name)
		if err != nil {
			s.stats.SegmentsBad++
			s.logf("store: %q: segment gen %d unusable (%v), falling back", name, g, err)
			continue
		}
		f, err := shard.FromSnapshot(payload)
		if err != nil {
			s.stats.SegmentsBad++
			s.logf("store: %q: segment gen %d undecodable (%v), falling back", name, g, err)
			continue
		}
		sf, ckptSeq, gen = f, seq, g
		s.stats.SegmentsLoaded++
		break
	}

	lastSeq := ckptSeq
	dropped, broken := false, false
	for _, wf := range wals {
		if broken && walStartsWithSnapshot(wf.path) {
			// A fresh log opened by a re-arm after a poisoned one: its first
			// record carries a full snapshot, so it is self-contained and
			// anchors replay past the torn tail behind it. Without this, a
			// crash before the poisoned file was retired would discard the
			// re-armed log — and every write acked after recovery.
			broken = false
		}
		if dropped || broken {
			// Beyond the recovery point: records here would leave a
			// sequence gap, so they cannot be applied.
			os.Remove(wf.path)
			continue
		}
		validLen, _, tailErr, err := scanWALFile(wf.path, func(rec walRecord) error {
			if rec.seq <= ckptSeq {
				s.stats.RecordsSkipped++
				if rec.seq > lastSeq {
					lastSeq = rec.seq
				}
				return nil
			}
			switch rec.typ {
			case recCreate, recRestore, recFold:
				// A Fold record is the snapshot of the collapsed filter a
				// background fold swapped in; recovery installs it exactly
				// like a Restore, reproducing the folded level structure.
				f, ferr := shard.FromSnapshot(rec.body)
				if ferr != nil {
					s.stats.ReplayErrors++
					s.logf("store: %q: snapshot record seq %d undecodable: %v", name, rec.seq, ferr)
					broken = true
					return errStopReplay
				}
				sf = f
			case recGrow:
				if sf == nil || len(rec.body) != 4 {
					s.stats.ReplayErrors++
					broken = true
					return errStopReplay
				}
				sh := int(binary.LittleEndian.Uint32(rec.body))
				if gerr := sf.GrowShard(sh); gerr != nil {
					// A grow the restored ladder cannot honor (e.g. the
					// budget shrank): log it, keep replaying — the level
					// structure differs but membership answers do not.
					s.logf("store: %q: replaying grow of shard %d at seq %d: %v", name, sh, rec.seq, gerr)
				}
			case recDrop:
				dropped = true
				return errStopReplay
			case recInsert, recDelete:
				if sf == nil {
					s.stats.ReplayErrors++
					broken = true
					return errStopReplay
				}
				key, attrs, _, derr := decodeRow(rec.body)
				if derr != nil {
					s.stats.ReplayErrors++
					broken = true
					return errStopReplay
				}
				if rec.typ == recInsert {
					sf.Insert(key, attrs)
				} else {
					sf.Delete(key, attrs)
				}
			case recInsertBatch:
				// Replay runs onto the pre-crash state, so an insert
				// error repeats the one the original insert met; only a
				// malformed body stops the replay.
				if sf == nil || eachBatchRow(rec.body, func(key uint64, attrs []uint64) error {
					sf.Insert(key, attrs)
					return nil
				}) != nil {
					s.stats.ReplayErrors++
					broken = true
					return errStopReplay
				}
			default:
				s.stats.ReplayErrors++
				s.logf("store: %q: unknown record type %d at seq %d", name, rec.typ, rec.seq)
				broken = true
				return errStopReplay
			}
			lastSeq = rec.seq
			s.stats.RecordsReplayed++
			return nil
		})
		if err != nil {
			// Unreadable file or bad header: treat like a torn tail.
			s.stats.TornTails++
			s.logf("store: %q: WAL %s unusable: %v", name, filepath.Base(wf.path), err)
			os.Remove(wf.path)
			broken = true
			continue
		}
		if tailErr != nil {
			s.stats.TornTails++
			s.logf("store: %q: WAL %s torn at byte %d (%v); truncating", name, filepath.Base(wf.path), validLen, tailErr)
			if terr := os.Truncate(wf.path, validLen); terr != nil {
				s.logf("store: %q: truncating %s: %v", name, filepath.Base(wf.path), terr)
			}
			broken = true
		}
	}

	if dropped {
		os.RemoveAll(dir)
		s.fs.SyncDir(s.dir)
		return nil, nil
	}
	if sf == nil {
		s.stats.Unrecoverable++
		s.logf("store: %q: no valid segment or Create record; skipping (directory kept)", name)
		return nil, nil
	}

	fl := &Filter{st: s, name: name, dir: dir}
	fl.live.Store(sf)
	fl.seq = lastSeq
	fl.written.Store(lastSeq)
	fl.synced.Store(lastSeq)
	fl.gen, fl.ckptSeq, fl.prevCkptSeq = gen, ckptSeq, ckptSeq
	// New appends go to a fresh file. Its name only has to sort after
	// every existing one; records carry their own sequence numbers.
	start := lastSeq
	for _, wf := range wals {
		if wf.start > start {
			start = wf.start
		}
	}
	if err := fl.openWAL(start + 1); err != nil {
		return nil, err
	}
	return fl, nil
}

// walStartsWithSnapshot reports whether the file's first intact record
// is snapshot-bearing (Create, Restore, or Fold): such a log is
// self-contained and can anchor replay even when earlier history is
// torn or missing.
func walStartsWithSnapshot(path string) bool {
	var typ byte
	n := 0
	_, _, _, err := scanWALFile(path, func(rec walRecord) error {
		typ, n = rec.typ, n+1
		return errStopReplay
	})
	if err != nil || n == 0 {
		return false
	}
	return typ == recCreate || typ == recRestore || typ == recFold
}
