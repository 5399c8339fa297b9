package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/fault"
	"ccf/internal/obs/trace"
	"ccf/internal/shard"
)

// ErrClosed reports an operation against a dropped or closed filter.
var ErrClosed = errors.New("store: filter closed")

// walBufSize is the bufio buffer in front of each WAL file; group commit
// flushes it on fsync, so it only bounds how much one flush writes.
const walBufSize = 1 << 16

// Filter is the durable handle for one named filter: the write-ahead log
// it appends to, the live ShardedFilter mutations apply to, and the
// checkpoint bookkeeping. Mutating methods follow WAL-before-apply: the
// record is framed into the log, the in-memory filter is updated, and the
// call returns once the configured fsync policy is satisfied.
type Filter struct {
	st   *Store
	name string
	dir  string

	// live is the in-memory filter. It is swapped (Restore, recovery
	// replay) only under barrier's write lock; reads are lock-free.
	live atomic.Pointer[shard.ShardedFilter]

	// barrier orders mutations against checkpoints: mutations hold the
	// read side across append+apply, so a checkpoint (write side) sees a
	// state that exactly matches a WAL position — no record is in the log
	// but missing from the snapshot, or vice versa.
	barrier sync.RWMutex
	closed  bool // set under barrier write lock

	// walMu serializes buffer writes and sequence assignment.
	walMu    sync.Mutex
	walF     fault.File
	walPath  string // path of the current log file (re-arm retires it)
	walStart uint64 // startSeq the current log file is named after
	walBW    *bufio.Writer
	seq      uint64 // last assigned record sequence number
	encBuf   []byte
	written  atomic.Uint64 // last seq written into the buffer

	// degraded, when non-nil, marks the WAL poisoned: a write, flush, or
	// fsync failed, so the durability of the log tail is unknown. All
	// mutations are rejected with a DegradedError until the store's
	// re-arm loop rotates to a fresh log; reads are unaffected.
	degraded atomic.Pointer[degradedState]

	// syncMu is the group-commit critical section: the first appender to
	// need durability flushes and fsyncs for everyone queued behind it.
	syncMu sync.Mutex
	synced atomic.Uint64 // last seq known durably fsynced

	walBytes atomic.Int64 // frame bytes since the last rotation
	walRecs  atomic.Int64 // records since the last rotation

	// ckptMu serializes checkpoints (and orders them against Drop and
	// Fold). gen/ckptSeq/prevCkptSeq are only touched under it after Open.
	ckptMu      sync.Mutex
	gen         uint64 // newest durable segment generation (0 = none)
	ckptSeq     uint64 // seq covered by that segment
	prevCkptSeq uint64 // seq covered by the generation before it
	ckptPending atomic.Bool

	folds       atomic.Uint64 // completed background folds; see Fold
	foldPending atomic.Bool

	// Origin trace IDs of the request that armed the pending checkpoint
	// or fold, so the background work's span and log line correlate back
	// to the trigger. Two words each (128-bit IDs), last-writer-wins —
	// correlation is best-effort, not a ledger.
	ckptOriginHi, ckptOriginLo atomic.Uint64
	foldOriginHi, foldOriginLo atomic.Uint64
}

// takeOrigin reads and clears a stored origin trace ID pair.
func takeOrigin(hi, lo *atomic.Uint64) trace.ID {
	return trace.ID{Hi: hi.Swap(0), Lo: lo.Swap(0)}
}

// Name returns the filter's registered name.
func (fl *Filter) Name() string { return fl.name }

// Live returns the in-memory filter all reads should go through.
func (fl *Filter) Live() *shard.ShardedFilter { return fl.live.Load() }

// openWAL creates a fresh log file whose first record will carry
// startSeq, fsyncs it and the directory, and installs it as the append
// target. Callers hold walMu or have the filter to themselves.
func (fl *Filter) openWAL(startSeq uint64) error {
	path := filepath.Join(fl.dir, walFileName(startSeq))
	f, err := fl.st.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, walBufSize)
	if err := writeWALHeader(bw, startSeq); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := fl.st.fs.SyncDir(fl.dir); err != nil {
		f.Close()
		return err
	}
	fl.walF, fl.walPath, fl.walStart, fl.walBW = f, path, startSeq, bw
	return nil
}

// append frames one record into the WAL buffer and returns its sequence
// number. enc appends the record body to the scratch buffer. Callers hold
// barrier.RLock (or the write lock), so append can never race a rotation.
func (fl *Filter) append(typ byte, enc func([]byte) []byte) (uint64, error) {
	if err := fl.rejectIfDegraded(); err != nil {
		return 0, err
	}
	fl.walMu.Lock()
	defer fl.walMu.Unlock()
	if fl.walBW == nil {
		return 0, ErrClosed
	}
	fl.seq++
	buf := fl.encBuf[:0]
	buf = append(buf, typ)
	buf = appendU64(buf, fl.seq)
	buf = enc(buf)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(buf, castagnoli))
	if _, err := fl.walBW.Write(hdr[:]); err != nil {
		return 0, fl.poison("wal append", err)
	}
	if _, err := fl.walBW.Write(buf); err != nil {
		return 0, fl.poison("wal append", err)
	}
	fl.walBytes.Add(int64(8 + len(buf)))
	fl.walRecs.Add(1)
	fl.st.metrics.WALAppendBytes.Add(uint64(8 + len(buf)))
	fl.st.metrics.WALAppendFrames.Inc()
	fl.written.Store(fl.seq)
	// Snapshot-bearing records (create/restore) can be huge; don't let one
	// pin a multi-MB scratch buffer forever.
	if cap(buf) <= 1<<20 {
		fl.encBuf = buf
	} else {
		fl.encBuf = nil
	}
	return fl.seq, nil
}

// commit makes seq durable per the store's fsync policy. With
// FsyncAlways it group-commits; otherwise the background flusher (or the
// OS) picks the record up later and commit returns immediately.
func (fl *Filter) commit(seq uint64) error {
	if fl.st.opts.Fsync == FsyncAlways {
		return fl.syncTo(seq)
	}
	return nil
}

// syncTo flushes and fsyncs until at least seq is durable. Concurrent
// callers batch: whoever holds syncMu syncs everything written so far,
// and the queued callers find their seq already covered.
func (fl *Filter) syncTo(seq uint64) error {
	if fl.synced.Load() >= seq {
		return nil
	}
	if err := fl.rejectIfDegraded(); err != nil {
		return err
	}
	fl.syncMu.Lock()
	defer fl.syncMu.Unlock()
	prev := fl.synced.Load()
	if prev >= seq {
		return nil
	}
	// The poisoning may have happened while we queued on syncMu; the
	// appended record's durability is unknown and must not be acked.
	if err := fl.rejectIfDegraded(); err != nil {
		return err
	}
	fl.walMu.Lock()
	if fl.walBW == nil {
		fl.walMu.Unlock()
		return nil // closed or rotated away; rotation syncs what it retires
	}
	err := fl.walBW.Flush()
	f := fl.walF
	written := fl.seq
	fl.walMu.Unlock()
	if err != nil {
		return fl.poison("wal flush", err)
	}
	m := &fl.st.metrics
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fl.poison("wal fsync", err)
	}
	m.FsyncLatency.ObserveSince(start)
	if written > prev {
		// Every record between the last durable seq and this sync rode the
		// same fsync: the group-commit batch size.
		m.GroupCommitFrames.Observe(int64(written - prev))
		fl.synced.Store(written)
	}
	return nil
}

// flush pushes buffered frames to the OS without fsync (FsyncNever's
// background behavior: survives process death, not power loss).
func (fl *Filter) flush() error {
	if fl.isDegraded() {
		return nil // nothing to flush that could still be trusted
	}
	fl.walMu.Lock()
	defer fl.walMu.Unlock()
	if fl.walBW == nil {
		return nil
	}
	if err := fl.walBW.Flush(); err != nil {
		return fl.poison("wal flush", err)
	}
	return nil
}

// InsertBatchInto appends the batch to the WAL, applies it through the
// sharded insert path, and returns the per-row results (shape follows
// shard.InsertBatchInto). The second result is the storage error: when
// non-nil the batch was not applied (append failed) or its durability is
// unknown (fsync failed) and the caller should fail the request.
func (fl *Filter) InsertBatchInto(dst []error, keys []uint64, attrs [][]uint64) ([]error, error) {
	return fl.InsertBatchTraced(dst, keys, attrs, nil)
}

// InsertBatchTraced is InsertBatchInto with phase spans recorded into
// tr: wal_append (the record frame + buffered write), apply (the
// in-memory sharded insert), and fsync_wait (the group-commit wait,
// a no-op span under interval/never policies). nil tr skips all of it.
func (fl *Filter) InsertBatchTraced(dst []error, keys []uint64, attrs [][]uint64, tr *trace.Req) ([]error, error) {
	if len(keys) != len(attrs) {
		return nil, shard.ErrBatchShape
	}
	fl.barrier.RLock()
	if fl.closed {
		fl.barrier.RUnlock()
		return nil, ErrClosed
	}
	sp := tr.Start(trace.PhaseWALAppend)
	seq, err := fl.append(recInsertBatch, func(b []byte) []byte {
		return appendBatch(b, keys, attrs)
	})
	sp.Attr(trace.AttrRows, int64(len(keys))).Attr(trace.AttrSeq, int64(seq)).End()
	if err != nil {
		fl.barrier.RUnlock()
		return nil, err
	}
	ap := tr.Start(trace.PhaseApply)
	errs := fl.Live().InsertBatchInto(dst, keys, attrs)
	ap.Attr(trace.AttrRows, int64(len(keys))).End()
	fl.barrier.RUnlock()
	fs := tr.Start(trace.PhaseFsyncWait)
	err = fl.commit(seq)
	fs.Attr(trace.AttrSeq, int64(seq)).End()
	if err != nil {
		return errs, err
	}
	fl.maybeCheckpointFrom(tr.TraceID())
	return errs, nil
}

// Insert appends and applies one row.
func (fl *Filter) Insert(key uint64, attrs []uint64) error {
	return fl.pointOp(recInsert, key, attrs, func(sf *shard.ShardedFilter) error {
		return sf.Insert(key, attrs)
	})
}

// Delete appends and applies one row deletion (Plain variant only).
func (fl *Filter) Delete(key uint64, attrs []uint64) error {
	return fl.pointOp(recDelete, key, attrs, func(sf *shard.ShardedFilter) error {
		return sf.Delete(key, attrs)
	})
}

func (fl *Filter) pointOp(typ byte, key uint64, attrs []uint64, apply func(*shard.ShardedFilter) error) error {
	fl.barrier.RLock()
	if fl.closed {
		fl.barrier.RUnlock()
		return ErrClosed
	}
	seq, err := fl.append(typ, func(b []byte) []byte {
		return appendRow(b, key, attrs)
	})
	if err != nil {
		fl.barrier.RUnlock()
		return err
	}
	opErr := apply(fl.Live())
	fl.barrier.RUnlock()
	if err := fl.commit(seq); err != nil {
		return err
	}
	fl.maybeCheckpoint()
	return opErr
}

// Grow appends a Grow record and proactively opens a new ladder level in
// shard sh of the live filter. Policy layers use it to expand before the
// newest level starts failing kicks; the record makes the policy's timing
// part of the log, so crash recovery reproduces the exact level structure
// instead of depending on when a threshold fired.
func (fl *Filter) Grow(sh int) error {
	fl.barrier.RLock()
	if fl.closed {
		fl.barrier.RUnlock()
		return ErrClosed
	}
	seq, err := fl.append(recGrow, func(b []byte) []byte {
		return appendU32(b, uint32(sh))
	})
	if err != nil {
		fl.barrier.RUnlock()
		return err
	}
	opErr := fl.Live().GrowShard(sh)
	fl.barrier.RUnlock()
	if err := fl.commit(seq); err != nil {
		return err
	}
	fl.maybeCheckpoint()
	return opErr
}

// FoldCount returns the number of completed background folds.
func (fl *Filter) FoldCount() uint64 { return fl.folds.Load() }

// Sync forces everything appended so far to durable storage, regardless
// of fsync policy. Called on graceful shutdown.
func (fl *Filter) Sync() error {
	return fl.syncTo(fl.written.Load())
}

// maybeCheckpoint hands the filter to the background checkpointer once
// the WAL since the last checkpoint crosses a threshold.
func (fl *Filter) maybeCheckpoint() {
	fl.maybeCheckpointFrom(trace.ID{})
}

// maybeCheckpointFrom is maybeCheckpoint remembering the triggering
// request's trace ID, so the checkpoint's span and log line correlate.
func (fl *Filter) maybeCheckpointFrom(origin trace.ID) {
	o := &fl.st.opts
	overBytes := o.CheckpointBytes > 0 && fl.walBytes.Load() >= o.CheckpointBytes
	overRecs := o.CheckpointRecords > 0 && fl.walRecs.Load() >= int64(o.CheckpointRecords)
	if overBytes || overRecs {
		fl.requestCheckpointFrom(origin)
	}
}

func (fl *Filter) requestCheckpoint() {
	fl.requestCheckpointFrom(trace.ID{})
}

func (fl *Filter) requestCheckpointFrom(origin trace.ID) {
	if !fl.ckptPending.CompareAndSwap(false, true) {
		return
	}
	if !origin.IsZero() {
		fl.ckptOriginHi.Store(origin.Hi)
		fl.ckptOriginLo.Store(origin.Lo)
	}
	select {
	case fl.st.ckptCh <- fl:
	default:
		// Checkpointer busy and queue full; the next append re-arms.
		fl.ckptPending.Store(false)
	}
}

// Checkpoint writes a new segment from the live filter and truncates the
// WAL. Writers are paused only while the snapshot is serialized and the
// log rotated; the segment write, manifest switch, and cleanup happen
// with traffic flowing. WAL files are retained back to the *previous*
// checkpoint, so recovery can fall back one generation when the newest
// segment turns out torn or corrupt.
func (fl *Filter) Checkpoint() error {
	fl.ckptMu.Lock()
	defer fl.ckptMu.Unlock()
	if err := fl.rejectIfDegraded(); err != nil {
		// A checkpoint rotates the WAL, which the poisoned log cannot do;
		// the re-arm loop schedules a fresh checkpoint after recovery.
		return err
	}
	start := time.Now()
	origin := takeOrigin(&fl.ckptOriginHi, &fl.ckptOriginLo)
	bg := fl.st.opts.Tracer.StartBackground(trace.PhaseCheckpoint, origin)

	fl.barrier.Lock()
	if fl.closed {
		fl.barrier.Unlock()
		return ErrClosed
	}
	seq := fl.seq // stable: barrier excludes appenders
	if seq == fl.ckptSeq {
		fl.barrier.Unlock()
		return nil // nothing since the last checkpoint
	}
	snap, err := fl.Live().Snapshot()
	if err != nil {
		fl.barrier.Unlock()
		return err
	}
	if err := fl.rotateWAL(seq + 1); err != nil {
		fl.barrier.Unlock()
		return err
	}
	fl.barrier.Unlock()

	// Segment and manifest failures (ENOSPC, EIO on the rename) do NOT
	// degrade the filter: the WAL is still good, every acked write is
	// still durable, and the previous MANIFEST generation stays valid —
	// the checkpoint is simply retried later. Only WAL failures poison.
	newGen := fl.gen + 1
	if _, err := writeSegment(fl.st.fs, fl.dir, fl.name, newGen, seq, snap); err != nil {
		return err
	}
	if err := writeManifest(fl.st.fs, fl.dir, manifest{Version: 1, Gen: newGen, Seq: seq}); err != nil {
		return err
	}
	fl.prevCkptSeq, fl.ckptSeq, fl.gen = fl.ckptSeq, seq, newGen
	fl.cleanup()
	m := &fl.st.metrics
	m.Checkpoints.Inc()
	m.CheckpointBytes.Add(uint64(len(snap)))
	m.CheckpointLatency.ObserveSince(start)
	bg.Attr(trace.AttrSeq, int64(seq)).Attr(trace.AttrBytes, int64(len(snap))).End()
	if id := bg.TraceID(); !id.IsZero() {
		fl.st.logf("store: checkpointed %q gen %d seq %d (%d snapshot bytes) trace=%s",
			fl.name, newGen, seq, len(snap), id.String())
	} else {
		fl.st.logf("store: checkpointed %q gen %d seq %d (%d snapshot bytes)", fl.name, newGen, seq, len(snap))
	}
	return nil
}

// rotateWAL flushes, fsyncs and retires the current log file and opens a
// fresh one starting at startSeq. Caller holds barrier's write lock, so
// no appender or group commit is in flight once syncMu is ours.
func (fl *Filter) rotateWAL(startSeq uint64) error {
	fl.syncMu.Lock()
	defer fl.syncMu.Unlock()
	fl.walMu.Lock()
	defer fl.walMu.Unlock()
	if fl.walBW == nil {
		return ErrClosed
	}
	if err := fl.walBW.Flush(); err != nil {
		// The retiring log's tail is now unknown: same poisoning rules as
		// the serving path.
		return fl.poison("wal rotate flush", err)
	}
	if err := fl.walF.Sync(); err != nil {
		return fl.poison("wal rotate fsync", err)
	}
	if startSeq <= fl.walStart {
		// The current file is already named at or past startSeq (recovery
		// opens the fresh log at lastSeq+1, so a checkpoint before any new
		// write would collide). Names only have to sort after every
		// existing one; records carry their own sequence numbers.
		startSeq = fl.walStart + 1
	}
	old, oldPath, oldStart := fl.walF, fl.walPath, fl.walStart
	if err := fl.openWAL(startSeq); err != nil {
		// Keep appending to the old file; the checkpoint is abandoned. The
		// old log was flushed and fsynced above, so nothing is poisoned.
		fl.walF, fl.walPath, fl.walStart = old, oldPath, oldStart
		fl.walBW = bufio.NewWriterSize(old, walBufSize)
		return err
	}
	old.Close()
	fl.synced.Store(fl.seq)
	fl.walBytes.Store(0)
	fl.walRecs.Store(0)
	return nil
}

// cleanup removes segments older than the previous generation, WAL files
// wholly covered by the previous checkpoint, and stray temp files.
// Best-effort: leftovers are retried at the next checkpoint and ignored
// by recovery.
//
// Fold-capable filters (an AutoGrow budget above one level) retain their
// whole WAL history instead: a fold rebuilds a right-sized filter by
// replaying the original rows, and those exist nowhere else — checkpoint
// segments hold only fingerprints, which cannot be re-hashed into a
// bigger table. Recovery time stays bounded by the checkpoint (records at
// or below ckptSeq are skipped, not applied); only disk, not replay work,
// grows with history. Compacting this row history is an open item.
func (fl *Filter) cleanup() {
	retainAll := fl.Live().AutoGrow().MaxLevels > 1
	entries, err := os.ReadDir(fl.dir)
	if err != nil {
		return
	}
	var wals []walFileRef
	for _, e := range entries {
		name := e.Name()
		if gen, ok := parseSegFileName(name); ok {
			if fl.gen >= 2 && gen <= fl.gen-2 {
				fl.st.fs.Remove(filepath.Join(fl.dir, name))
			}
			continue
		}
		if start, ok := parseWALFileName(name); ok {
			wals = append(wals, walFileRef{start, filepath.Join(fl.dir, name)})
			continue
		}
		if filepath.Ext(name) == ".tmp" {
			fl.st.fs.Remove(filepath.Join(fl.dir, name))
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].start < wals[j].start })
	// File i holds seqs [start_i, start_{i+1}-1]; safe to delete once all
	// of them are covered by the previous checkpoint. The active file
	// (last) is never deleted, and fold-capable filters keep everything.
	for i := 0; !retainAll && i+1 < len(wals); i++ {
		if wals[i+1].start <= fl.prevCkptSeq+1 {
			fl.st.fs.Remove(wals[i].path)
		}
	}
	fl.st.fs.SyncDir(fl.dir)
}

// close flushes (and with sync, fsyncs) the WAL and closes the file.
// Further mutations return ErrClosed.
func (fl *Filter) close(sync bool) error {
	fl.barrier.Lock()
	defer fl.barrier.Unlock()
	return fl.closeLocked(sync)
}

func (fl *Filter) closeLocked(sync bool) error {
	if fl.closed {
		return nil
	}
	fl.closed = true
	// syncMu first (same order as syncTo/rotateWAL): an in-flight group
	// commit must finish its fsync before the fd goes away.
	fl.syncMu.Lock()
	defer fl.syncMu.Unlock()
	fl.walMu.Lock()
	defer fl.walMu.Unlock()
	if fl.walBW == nil {
		return nil
	}
	if fl.isDegraded() {
		// The tail is poisoned; flushing or fsyncing it again would just
		// fail (or worse, appear to succeed without meaning durability).
		err := fl.walF.Close()
		fl.walF, fl.walBW = nil, nil
		if err != nil {
			return fmt.Errorf("store: closing degraded %q: %w", fl.name, err)
		}
		return nil
	}
	err := fl.walBW.Flush()
	if sync && err == nil {
		err = fl.walF.Sync()
	}
	if cerr := fl.walF.Close(); err == nil {
		err = cerr
	}
	fl.walF, fl.walBW = nil, nil
	if err != nil {
		return fmt.Errorf("store: closing %q: %w", fl.name, err)
	}
	return nil
}
