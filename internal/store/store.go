package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/fault"
	"ccf/internal/obs/trace"
	"ccf/internal/shard"
)

// FsyncPolicy says when WAL appends reach durable storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) acknowledges writes once they are in
	// the log buffer; a background flusher fsyncs every FlushInterval, so
	// a crash loses at most that window.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs before acknowledging. Concurrent writers share
	// fsyncs via group commit, so the cost amortizes under load.
	FsyncAlways
	// FsyncNever leaves fsync to the OS: the flusher still pushes the
	// buffer to the page cache each interval, so data survives process
	// death (SIGKILL) but not power loss or kernel panic.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy maps a flag value to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "", "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always|interval|never)", s)
}

// Options configures a Store.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Fsync is the WAL durability policy.
	Fsync FsyncPolicy
	// FlushInterval is the background flush/fsync cadence for the
	// interval and never policies. 0 means 5ms.
	FlushInterval time.Duration
	// CheckpointBytes triggers a checkpoint once a filter's WAL grows
	// past this many bytes since the last one. 0 means 64 MiB; negative
	// disables the bytes trigger.
	CheckpointBytes int64
	// CheckpointRecords triggers a checkpoint once a filter's WAL holds
	// this many records since the last one. 0 means 1<<20; negative
	// disables the records trigger.
	CheckpointRecords int
	// Logf, when set, receives operational log lines (recovery findings,
	// checkpoints, corruption fallbacks).
	Logf func(format string, args ...any)
	// Tracer, when set, receives background spans (recovery, checkpoint,
	// fold) and the per-phase spans of traced mutations. Nil disables
	// tracing; every span call is nil-safe.
	Tracer *trace.Tracer
	// FS is the filesystem the store writes through. Nil means the real
	// one; tests and the -fault-schedule dev flag wrap it with
	// fault.Injected to rehearse disk failures.
	FS fault.FS
	// RearmMin / RearmMax bound the exponential backoff of the re-arm
	// probe that restores write availability after a filter degrades.
	// Zero means 250ms / 5s.
	RearmMin time.Duration
	RearmMax time.Duration
}

// RecoveryStats summarizes what Open found on disk.
type RecoveryStats struct {
	Filters         int `json:"filters"`
	SegmentsLoaded  int `json:"segments_loaded"`
	SegmentsBad     int `json:"segments_bad"`
	WALFiles        int `json:"wal_files"`
	RecordsReplayed int `json:"records_replayed"`
	RecordsSkipped  int `json:"records_skipped"`
	TornTails       int `json:"torn_tails"`
	ReplayErrors    int `json:"replay_errors"`
	// Unrecoverable counts filter directories Open had to skip entirely
	// (no valid segment and no Create record). They are kept on disk for
	// inspection; /readyz surfaces this count.
	Unrecoverable int           `json:"unrecoverable"`
	Duration      time.Duration `json:"duration_ns"`
}

// Store is the durable filter catalog: one directory per named filter,
// recovered on Open, checkpointed in the background. All methods are
// safe for concurrent use.
type Store struct {
	opts Options
	dir  string // <Options.Dir>/filters
	fs   fault.FS

	// catalogMu serializes create/drop/restore so directory renames and
	// map updates cannot interleave.
	catalogMu sync.Mutex
	mu        sync.RWMutex
	filters   map[string]*Filter
	// flist is a read-only snapshot of the catalog's values, rebuilt on
	// every create/drop, so the 5ms flush loop iterates without taking
	// mu or allocating per tick.
	flist atomic.Pointer[[]*Filter]

	ckptCh chan *Filter
	foldCh chan *Filter
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	stats RecoveryStats
	// metrics holds the always-on instrumentation handles (see Metrics);
	// initialized in Open before any filter can append.
	metrics Metrics
}

// Open creates or recovers the store at opts.Dir and starts the
// background flusher and checkpointer.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	if opts.FlushInterval < 0 {
		return nil, fmt.Errorf("store: negative flush interval %s", opts.FlushInterval)
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = 5 * time.Millisecond
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 64 << 20
	}
	if opts.CheckpointRecords == 0 {
		opts.CheckpointRecords = 1 << 20
	}
	if opts.FS == nil {
		opts.FS = fault.OS
	}
	if opts.RearmMin <= 0 {
		opts.RearmMin = 250 * time.Millisecond
	}
	if opts.RearmMax < opts.RearmMin {
		opts.RearmMax = 5 * time.Second
		if opts.RearmMax < opts.RearmMin {
			opts.RearmMax = opts.RearmMin
		}
	}
	dir := filepath.Join(opts.Dir, "filters")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		opts:    opts,
		dir:     dir,
		fs:      opts.FS,
		filters: make(map[string]*Filter),
		ckptCh:  make(chan *Filter, 64),
		foldCh:  make(chan *Filter, 16),
		stop:    make(chan struct{}),
	}
	s.metrics.init()
	start := time.Now()
	bg := opts.Tracer.StartBackground(trace.PhaseRecovery, trace.ID{})
	if err := s.recoverAll(); err != nil {
		return nil, err
	}
	bg.Attr(trace.AttrFilters, int64(s.stats.Filters)).
		Attr(trace.AttrRecords, int64(s.stats.RecordsReplayed)).
		End()
	s.publishList()
	s.stats.Duration = time.Since(start)
	s.wg.Add(3)
	go s.flushLoop()
	go s.checkpointLoop()
	go s.rearmLoop()
	return s, nil
}

// RecoveryStats reports what Open found.
func (s *Store) RecoveryStats() RecoveryStats { return s.stats }

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Get returns the durable handle for name, or nil.
func (s *Store) Get(name string) *Filter {
	s.mu.RLock()
	fl := s.filters[name]
	s.mu.RUnlock()
	return fl
}

// Filters returns a snapshot of the catalog.
func (s *Store) Filters() map[string]*Filter {
	s.mu.RLock()
	out := make(map[string]*Filter, len(s.filters))
	for n, fl := range s.filters {
		out[n] = fl
	}
	s.mu.RUnlock()
	return out
}

// publishList rebuilds the flush loop's catalog snapshot. Called under
// catalogMu (or before the background goroutines start).
func (s *Store) publishList() {
	s.mu.RLock()
	list := make([]*Filter, 0, len(s.filters))
	for _, fl := range s.filters {
		list = append(list, fl)
	}
	s.mu.RUnlock()
	s.flist.Store(&list)
}

// Create registers sf under name (replacing any existing filter, PUT
// semantics) and makes the creation durable: the filter's directory, a
// fresh WAL whose first record carries a full snapshot, all fsynced
// before Create returns regardless of fsync policy.
func (s *Store) Create(name string, sf *shard.ShardedFilter) (*Filter, error) {
	snap, err := sf.Snapshot()
	if err != nil {
		return nil, err
	}
	s.catalogMu.Lock()
	defer s.catalogMu.Unlock()
	return s.createLocked(name, snap, sf)
}

func (s *Store) createLocked(name string, snap []byte, sf *shard.ShardedFilter) (*Filter, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if old := s.Get(name); old != nil {
		if err := s.dropLocked(old); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(s.dir, filterDirName(name))
	// A leftover directory here was unrecoverable (Open skipped it) or
	// half-dropped; the new filter replaces it.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fl := &Filter{st: s, name: name, dir: dir}
	fl.live.Store(sf)
	if err := fl.openWAL(1); err != nil {
		return nil, err
	}
	seq, err := fl.append(recCreate, func(b []byte) []byte { return append(b, snap...) })
	if err != nil {
		fl.closeLocked(false)
		return nil, err
	}
	if err := fl.syncTo(seq); err != nil {
		fl.closeLocked(false)
		return nil, err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		fl.closeLocked(false)
		return nil, err
	}
	s.mu.Lock()
	s.filters[name] = fl
	s.mu.Unlock()
	s.publishList()
	return fl, nil
}

// Drop durably removes name: a Drop record is appended and synced, the
// directory is atomically renamed to a tombstone, then deleted. Dropping
// an unknown name is a no-op.
func (s *Store) Drop(name string) error {
	s.catalogMu.Lock()
	defer s.catalogMu.Unlock()
	fl := s.Get(name)
	if fl == nil {
		return nil
	}
	return s.dropLocked(fl)
}

func (s *Store) dropLocked(fl *Filter) error {
	s.mu.Lock()
	delete(s.filters, fl.name)
	s.mu.Unlock()
	s.publishList()
	// Wait out any in-flight checkpoint before touching the directory.
	fl.ckptMu.Lock()
	defer fl.ckptMu.Unlock()
	fl.barrier.Lock()
	if !fl.closed {
		fl.append(recDrop, func(b []byte) []byte { return b })
		// close(true) flushes and fsyncs the Drop record in; going through
		// closeLocked keeps the fd handling behind syncMu/walMu.
		fl.closeLocked(true)
	}
	fl.barrier.Unlock()
	tomb := fl.dir + ".dropped"
	os.RemoveAll(tomb)
	if err := s.fs.Rename(fl.dir, tomb); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	return os.RemoveAll(tomb)
}

// Restore durably replaces name's contents with the given snapshot and
// the already-decoded filter built from it. For an existing filter a
// Restore record (carrying the snapshot) is appended and fsynced and the
// live filter swapped atomically; otherwise this is a durable create. A
// checkpoint is scheduled right away so the snapshot moves from the WAL
// into a segment.
func (s *Store) Restore(name string, snap []byte, sf *shard.ShardedFilter) (*Filter, error) {
	s.catalogMu.Lock()
	fl := s.Get(name)
	if fl == nil {
		defer s.catalogMu.Unlock()
		return s.createLocked(name, snap, sf)
	}
	fl.barrier.Lock()
	if fl.closed {
		fl.barrier.Unlock()
		s.catalogMu.Unlock()
		return nil, ErrClosed
	}
	seq, err := fl.append(recRestore, func(b []byte) []byte { return append(b, snap...) })
	if err != nil {
		fl.barrier.Unlock()
		s.catalogMu.Unlock()
		return nil, err
	}
	fl.live.Store(sf)
	fl.barrier.Unlock()
	s.catalogMu.Unlock()
	if err := fl.syncTo(seq); err != nil {
		return fl, err
	}
	fl.requestCheckpoint()
	return fl, nil
}

// Sync forces every filter's WAL to durable storage.
func (s *Store) Sync() error {
	var first error
	for _, fl := range s.Filters() {
		if err := fl.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the background goroutines, flushes and fsyncs every WAL,
// and closes the log files. The store is unusable afterwards.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	s.wg.Wait()
	var first error
	for _, fl := range s.Filters() {
		if err := fl.close(true); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushLoop is the group-commit heartbeat for the interval and never
// policies. FsyncAlways needs no background work: appenders sync inline.
func (s *Store) flushLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			for _, fl := range *s.flist.Load() {
				if fl.isDegraded() {
					continue // nothing in the poisoned tail can become durable
				}
				var err error
				switch s.opts.Fsync {
				case FsyncInterval:
					err = fl.Sync()
				case FsyncNever:
					err = fl.flush()
				}
				if err != nil {
					s.logf("store: background flush of %q: %v", fl.name, err)
				}
			}
		}
	}
}

// checkpointLoop runs threshold-triggered checkpoints and requested
// folds one at a time (they contend for the same ckptMu anyway, so one
// worker avoids queueing them against each other).
func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case fl := <-s.ckptCh:
			fl.ckptPending.Store(false)
			if err := fl.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDegraded) {
				s.logf("store: checkpoint of %q failed: %v", fl.name, err)
			}
		case fl := <-s.foldCh:
			fl.foldPending.Store(false)
			if err := fl.Fold(); err != nil && !errors.Is(err, ErrClosed) {
				s.logf("store: fold of %q failed: %v", fl.name, err)
			}
		}
	}
}
