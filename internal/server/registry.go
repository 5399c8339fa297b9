// Package server turns the sharded conditional cuckoo filter into a
// serving subsystem: a registry of named filters (one per join-graph
// table in the paper's pushdown deployment, §3) and one request core
// that answers "key given predicate" through each filter's compiled
// batch probe (Algorithm 5), behind an HTTP/JSON API and the binary wire
// protocol (see NewHandler and NewServer).
package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/core"
	"ccf/internal/obs"
	"ccf/internal/obs/trace"
	"ccf/internal/shard"
	"ccf/internal/store"
)

// DefaultViewCacheCap is kept so existing callers of NewRegistry compile.
//
// Deprecated: ccfd keeps no predicate-view cache, and NewRegistry ignores
// its argument.
const DefaultViewCacheCap = 64

// AutoGrowPolicy is the per-filter elastic-capacity policy: how far a
// filter may grow (MaxLevels, GrowthFactor map onto core.LadderOptions),
// when to grow proactively (GrowAtLoad on the newest level, ahead of the
// reactive in-insert growth that fires on kick failure), and when to ask
// the durable store to fold the ladder back into one right-sized level
// (FoldAtLevels; folding needs the WAL's row history, so it is a no-op
// for in-memory filters).
type AutoGrowPolicy struct {
	// MaxLevels is the total ladder levels allowed per shard. Default 6
	// (five doublings: 63× the initial capacity at equal load).
	MaxLevels int `json:"max_levels"`
	// GrowthFactor multiplies the bucket count per level. Default 2.
	GrowthFactor int `json:"growth_factor"`
	// GrowAtLoad proactively opens a level once a shard's newest level
	// reaches this load factor, before kick failures set in. Default
	// 0.85; negative disables proactive growth (reactive growth still
	// applies).
	GrowAtLoad float64 `json:"grow_at_load"`
	// FoldAtLevels schedules a background fold once any shard's ladder
	// reaches this many levels. Default 3; negative or ≤ 1 disables.
	FoldAtLevels int `json:"fold_at_levels"`
}

// DefaultAutoGrowPolicy is the policy `ccfd serve -auto-grow` applies to
// filters created without an explicit one.
func DefaultAutoGrowPolicy() AutoGrowPolicy {
	return AutoGrowPolicy{MaxLevels: 6, GrowthFactor: 2, GrowAtLoad: 0.85, FoldAtLevels: 3}
}

func (p AutoGrowPolicy) normalized() AutoGrowPolicy {
	if p.MaxLevels == 0 {
		p.MaxLevels = 6
	}
	if p.GrowthFactor == 0 {
		p.GrowthFactor = 2
	}
	if p.GrowAtLoad == 0 {
		p.GrowAtLoad = 0.85
	}
	if p.FoldAtLevels == 0 {
		p.FoldAtLevels = 3
	}
	return p
}

// ladderOptions maps the policy onto the shard layer's growth budget.
func (p AutoGrowPolicy) ladderOptions() core.LadderOptions {
	return core.LadderOptions{MaxLevels: p.MaxLevels, GrowthFactor: p.GrowthFactor}
}

// Registry maps filter names to sharded instances. All methods are safe
// for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	st      *store.Store // nil = in-memory only
	// defaultPolicy, when non-nil, applies to filters created without an
	// explicit AutoGrowPolicy and to filters recovered from the store.
	defaultPolicy *AutoGrowPolicy
	// catMu serializes Create/Restore/Delete end to end so the store's
	// catalog op and the registry map update cannot interleave with a
	// racing create or delete of the same name (e.g. a DELETE dropping
	// the on-disk state of a filter a concurrent PUT just acked).
	catMu sync.Mutex
	// obs, when non-nil, is the exposition registry: put names each
	// filter's shard-layer handles there (and Delete unnames them), and
	// AttachStore adds the WAL/checkpoint/fold/recovery families.
	obs *obs.Registry
}

// StoreFailure marks a durability-layer error (WAL append, fsync, disk)
// as opposed to bad client input; HTTP handlers map it to 500.
type StoreFailure struct{ Err error }

func (e *StoreFailure) Error() string { return "server: durable store: " + e.Err.Error() }
func (e *StoreFailure) Unwrap() error { return e.Err }

// Entry is a registered filter plus, when the registry has a store
// attached, its durable log handle.
type Entry struct {
	name   string
	sf     *shard.ShardedFilter
	log    *store.Filter   // nil = not durable
	policy *AutoGrowPolicy // nil = elastic capacity off

	// limit is the per-filter token bucket (rows/keys per second), nil
	// when the filter is unthrottled. Swapped whole on SetRateLimit so
	// the admission check is one atomic load plus the bucket's mutex.
	limit atomic.Pointer[tokenBucket]

	// growMu makes the policy's check-then-grow atomic against
	// concurrent insert batches (TryLock: a batch that finds another
	// batch already running the policy skips it — the next batch will
	// check again). growBuf is the recycled GrowthStats buffer, guarded
	// by growMu.
	growMu  sync.Mutex
	growBuf []shard.GrowthStat
}

// NewRegistry returns an empty registry. Its argument is ignored: it
// sized a per-filter predicate-view cache ccfd no longer keeps, and
// stays so existing callers compile.
func NewRegistry(int) *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// SetDefaultPolicy installs the auto-grow policy applied to filters
// created without an explicit one and to filters recovered from an
// attached store (`ccfd serve -auto-grow`). Call before AttachStore and
// before serving traffic; nil turns the default off.
func (r *Registry) SetDefaultPolicy(p *AutoGrowPolicy) {
	if p != nil {
		np := p.normalized()
		p = &np
	}
	r.mu.Lock()
	r.defaultPolicy = p
	r.mu.Unlock()
}

// AttachObs points the registry at an exposition registry: every filter
// registered from here on (and, via AttachStore, the store's WAL,
// checkpoint, fold, and recovery families) gets its metric series named
// there. Call before AttachStore and before serving traffic. The hot
// paths never touch the exposition registry — the counter handles live
// inside the filters and the store and are merely named here.
func (r *Registry) AttachObs(reg *obs.Registry) {
	r.mu.Lock()
	r.obs = reg
	r.mu.Unlock()
}

func (r *Registry) obsRegistry() *obs.Registry {
	r.mu.RLock()
	reg := r.obs
	r.mu.RUnlock()
	return reg
}

// AttachStore makes the registry durable: filters the store recovered on
// boot are registered immediately, and every later Create/Delete/Restore
// and batched insert goes through the store's WAL before acking. Call
// before serving traffic.
//
// Elastic capacity across restarts: the recovered snapshot carries each
// filter's ladder budget (MaxLevels, GrowthFactor), and that explicit
// budget wins — a filter PUT with auto_grow {max_levels: 12} keeps 12
// after a restart, with the serving-side thresholds (GrowAtLoad,
// FoldAtLevels) refilled from the registry default so grows and folds
// keep being scheduled. Only filters recovered with growth off adopt
// the default policy wholesale (that is what `-auto-grow` means), and
// with no default either, they stay fixed-size.
func (r *Registry) AttachStore(st *store.Store) {
	r.mu.Lock()
	r.st = st
	defPolicy := r.defaultPolicy
	r.mu.Unlock()
	for name, fl := range st.Filters() {
		e := &Entry{name: name, sf: fl.Live(), log: fl}
		if opts := e.sf.AutoGrow(); opts.MaxLevels > 1 {
			p := AutoGrowPolicy{MaxLevels: opts.MaxLevels, GrowthFactor: opts.GrowthFactor}.normalized()
			e.policy = &p
		} else if defPolicy != nil {
			e.policy = defPolicy
			e.sf.SetAutoGrow(defPolicy.ladderOptions())
		}
		r.put(e)
	}
	if reg := r.obsRegistry(); reg != nil {
		registerStoreMetrics(reg, st)
	}
}

func (r *Registry) store() *store.Store {
	r.mu.RLock()
	st := r.st
	r.mu.RUnlock()
	return st
}

// Create builds a sharded filter from opts and registers it under name,
// replacing any existing filter (PUT semantics). With a store attached
// the creation is durable before Create returns. policy, when non-nil
// (or when the registry has a default), enables elastic capacity: it
// sets the shards' ladder budget and drives proactive grows and
// background folds after inserts.
func (r *Registry) Create(name string, opts shard.Options, policy *AutoGrowPolicy) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty filter name")
	}
	policy = r.effectivePolicy(policy)
	if policy != nil {
		opts.AutoGrow = policy.ladderOptions()
	}
	sf, err := shard.New(opts)
	if err != nil {
		return nil, err
	}
	r.catMu.Lock()
	defer r.catMu.Unlock()
	var log *store.Filter
	if st := r.store(); st != nil {
		if log, err = st.Create(name, sf); err != nil {
			return nil, &StoreFailure{err}
		}
	}
	e := &Entry{name: name, sf: sf, log: log, policy: policy}
	r.put(e)
	return e, nil
}

// effectivePolicy normalizes an explicit policy or falls back to the
// registry default.
func (r *Registry) effectivePolicy(policy *AutoGrowPolicy) *AutoGrowPolicy {
	if policy != nil {
		np := policy.normalized()
		return &np
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultPolicy
}

// Restore registers a filter rebuilt from a Snapshot payload under name,
// replacing any existing entry; with a store attached, the snapshot is
// durably logged first.
func (r *Registry) Restore(name string, data []byte) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty filter name")
	}
	sf, err := shard.FromSnapshot(data)
	if err != nil {
		return nil, err
	}
	// Like AttachStore: a growth budget carried by the snapshot wins
	// (with serving-side thresholds refilled from defaults); otherwise
	// the registry default applies, if any.
	var policy *AutoGrowPolicy
	if opts := sf.AutoGrow(); opts.MaxLevels > 1 {
		p := AutoGrowPolicy{MaxLevels: opts.MaxLevels, GrowthFactor: opts.GrowthFactor}.normalized()
		policy = &p
	} else if policy = r.effectivePolicy(nil); policy != nil {
		sf.SetAutoGrow(policy.ladderOptions())
	}
	r.catMu.Lock()
	defer r.catMu.Unlock()
	var log *store.Filter
	if st := r.store(); st != nil {
		log, err = st.Restore(name, data, sf)
		if err != nil && log == nil {
			return nil, &StoreFailure{err}
		}
		// log non-nil with err: the store already swapped its live filter
		// (only the fsync outcome is unknown), so the registry must still
		// install the new entry — keeping the old one would send durable
		// inserts to the new filter while queries read the old.
	}
	e := &Entry{name: name, sf: sf, log: log, policy: policy}
	r.put(e)
	if err != nil {
		return e, &StoreFailure{err}
	}
	return e, nil
}

// Set registers an existing sharded filter under name, replacing any
// previous entry. The entry is not durable — use Create or Restore when
// a store is attached.
func (r *Registry) Set(name string, sf *shard.ShardedFilter) *Entry {
	e := &Entry{name: name, sf: sf}
	r.put(e)
	return e
}

func (r *Registry) put(e *Entry) {
	r.mu.Lock()
	r.entries[e.name] = e
	reg := r.obs
	r.mu.Unlock()
	if reg != nil {
		// Replacing a filter (PUT semantics) re-registers the same label
		// set, which swaps the series to the new instance's handles.
		registerFilterMetrics(reg, e.name, e.sf)
	}
}

// Get returns the entry registered under name.
// lookupBytes is Get for a name that still aliases a receive buffer:
// the map index's string conversion compiles away, so the wire path
// resolves filters without allocating.
func (r *Registry) lookupBytes(name []byte) (*Entry, bool) {
	r.mu.RLock()
	e, ok := r.entries[string(name)]
	r.mu.RUnlock()
	return e, ok
}

func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	return e, ok
}

// Delete removes the entry registered under name, and with a store
// attached removes its on-disk state too. The bool reports whether the
// name existed; a non-nil error means the in-memory entry is gone but
// the durable drop failed.
func (r *Registry) Delete(name string) (bool, error) {
	r.catMu.Lock()
	defer r.catMu.Unlock()
	r.mu.Lock()
	_, ok := r.entries[name]
	delete(r.entries, name)
	st := r.st
	reg := r.obs
	r.mu.Unlock()
	if ok && reg != nil {
		reg.Unregister("filter", name)
	}
	if !ok || st == nil {
		return ok, nil
	}
	if err := st.Drop(name); err != nil {
		return ok, &StoreFailure{err}
	}
	return ok, nil
}

// DegradedFilters lists the attached store's filters currently in
// degraded read-only mode (nil without a store, empty when healthy);
// GET /readyz surfaces it so operators and probes see write
// availability directly.
func (r *Registry) DegradedFilters() []store.DegradedFilter {
	st := r.store()
	if st == nil {
		return nil
	}
	return st.Degraded()
}

// Names returns the registered filter names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Name returns the entry's registered name.
func (e *Entry) Name() string { return e.name }

// Filter returns the underlying sharded filter.
func (e *Entry) Filter() *shard.ShardedFilter { return e.sf }

// InsertBatch applies a batched insert, going WAL-first when the entry
// is durable, then runs the entry's auto-grow policy (proactive level
// opens, fold scheduling). The per-row slice follows
// shard.InsertBatchInto, written into dst — every row is attempted and
// carries its own status, see shard.StatusOf; the second result is the
// storage error — when non-nil the batch was not applied or its
// durability is unknown and the request should fail. tr, when non-nil,
// receives the phase spans (WAL append, apply, fsync wait via the store;
// apply-only on volatile entries) and is propagated to policy work the
// batch triggers, so a fold or grow correlates back to this request.
func (e *Entry) InsertBatch(dst []error, keys []uint64, attrs [][]uint64, tr *trace.Req) ([]error, error) {
	var errs []error
	var err error
	if e.log != nil {
		errs, err = e.log.InsertBatchTraced(dst, keys, attrs, tr)
	} else {
		sp := tr.Start(trace.PhaseApply)
		errs = e.sf.InsertBatchInto(dst, keys, attrs)
		sp.Attr(trace.AttrRows, int64(len(keys))).End()
	}
	if err == nil {
		e.maybeAutoGrow(tr)
	}
	return errs, err
}

// maybeAutoGrow applies the entry's elastic-capacity policy after a
// mutation: shards whose newest level crossed GrowAtLoad get a proactive
// level (WAL-logged when durable, so recovery reproduces the exact
// structure), and a ladder at FoldAtLevels schedules a background fold.
// Reactive growth inside the insert path needs no help from here — this
// trims its latency spikes and keeps read cost bounded.
//
// The probe is deliberately cheap (GrowthStats into a recycled buffer,
// no per-level allocations) because it runs after every insert batch,
// and growMu makes check-then-grow atomic: without it two concurrent
// batches could both see a shard past the threshold and double-grow it.
// A batch that loses the TryLock just skips the check — the policy is
// advisory, and reactive growth inside the insert path covers whatever
// it misses.
func (e *Entry) maybeAutoGrow(tr *trace.Req) {
	p := e.policy
	if p == nil {
		return
	}
	if !e.growMu.TryLock() {
		return
	}
	defer e.growMu.Unlock()
	e.growBuf = e.sf.GrowthStats(e.growBuf)
	maxLevels := 0
	for i, g := range e.growBuf {
		if g.Levels > maxLevels {
			maxLevels = g.Levels
		}
		if p.GrowAtLoad <= 0 || g.NewestLoad < p.GrowAtLoad || g.Levels >= p.MaxLevels {
			continue
		}
		sp := tr.Start(trace.PhaseGrow)
		var err error
		if e.log != nil {
			err = e.log.Grow(i)
		} else {
			err = e.sf.GrowShard(i)
		}
		sp.Attr(trace.AttrShard, int64(i)).Attr(trace.AttrLevels, int64(g.Levels+1)).End()
		if err != nil {
			break // budget exhausted or store trouble; reactive growth still applies
		}
		if g.Levels+1 > maxLevels {
			maxLevels = g.Levels + 1
		}
	}
	if p.FoldAtLevels > 1 && maxLevels >= p.FoldAtLevels && e.log != nil {
		// The fold runs in the background; hand it this request's trace
		// ID so its span and log line correlate back to the trigger.
		e.log.RequestFoldFrom(tr.TraceID())
	}
}

// Policy returns the entry's auto-grow policy, nil when elastic capacity
// is off.
func (e *Entry) Policy() *AutoGrowPolicy { return e.policy }

// SetRateLimit installs (or with nil clears) the filter's token-bucket
// rate limit. Work units are rows for inserts and keys for queries.
func (e *Entry) SetRateLimit(p *RateLimitPolicy) {
	if p == nil || p.RPS <= 0 {
		e.limit.Store(nil)
		return
	}
	e.limit.Store(newTokenBucket(*p))
}

// RateLimit returns the entry's rate-limit policy, nil when
// unthrottled.
func (e *Entry) RateLimit() *RateLimitPolicy {
	b := e.limit.Load()
	if b == nil {
		return nil
	}
	return b.policy()
}

// admitUnits spends n work units against the entry's rate limit,
// reporting admission and, when throttled, the Retry-After hint. An
// unthrottled entry admits everything at the cost of one atomic load.
func (e *Entry) admitUnits(n int) (bool, time.Duration) {
	b := e.limit.Load()
	if b == nil {
		return true, 0
	}
	return b.take(float64(n))
}

// Folds returns the number of completed background folds (durable
// entries only).
func (e *Entry) Folds() uint64 {
	if e.log == nil {
		return 0
	}
	return e.log.FoldCount()
}
