package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccf"
	"ccf/internal/core"
	"ccf/internal/obs"
	"ccf/internal/obs/trace"
	"ccf/internal/server"
	"ccf/internal/shard"
	"ccf/internal/simd"
	"ccf/internal/store"
	"ccf/internal/zipfmd"
)

// BenchResult is one machine-readable benchmark record; the JSON file is
// an array of these, the perf trajectory future PRs compare against.
// AllocsPerOp and BytesPerOp are process-wide heap deltas divided by the
// operation count, so the packed engine's allocation-free steady state is
// machine-visible alongside latency.
type BenchResult struct {
	Op          string  `json:"op"`   // insert | query | mixed
	Impl        string  `json:"impl"` // sync | sharded | sharded-rlock | sharded+wal
	Variant     string  `json:"variant"`
	Shards      int     `json:"shards"` // 1 for sync
	Batch       int     `json:"batch"`  // 1 = point calls
	NsPerOp     float64 `json:"ns_per_op"`
	QPS         float64 `json:"qps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Machine context: without it a perf trajectory across PRs silently
	// mixes hosts. Cores is the machine's logical CPU count (not
	// GOMAXPROCS, which tracks a tunable); Goarch, CPUFeatures and
	// ProbeEngine record which vector kernels the run actually used.
	Cores       int     `json:"cores"`
	Goarch      string  `json:"goarch"`
	CPUFeatures string  `json:"cpu_features"`
	ProbeEngine string  `json:"probe_engine"`
	Alpha       float64 `json:"alpha"`
	Keys        int     `json:"keys"`
	Ops         int     `json:"ops"`
	Fsync       string  `json:"fsync,omitempty"`     // sharded+wal only
	Clients     int     `json:"clients,omitempty"`   // mixed only: concurrent goroutines
	ReadFrac    float64 `json:"read_frac,omitempty"` // mixed only: fraction of read batches
	Phase       string  `json:"phase,omitempty"`     // grow mode: pre | grown | folded | rightsized
	Levels      int     `json:"levels,omitempty"`    // grow mode: ladder levels at measurement
	Rows        int     `json:"rows,omitempty"`      // grow mode: rows inserted at measurement

	// Metric-scrape summaries (-metrics, on by default): the pass's
	// instrumentation handles are registered in a throwaway exposition
	// registry and scraped before and after the measured run — the same
	// families /metrics serves — and the deltas folded in here.
	SeqlockRetries   uint64  `json:"seqlock_retries,omitempty"`   // contended passes
	SeqlockFallbacks uint64  `json:"seqlock_fallbacks,omitempty"` // contended passes
	FsyncCount       uint64  `json:"fsyncs,omitempty"`            // durable pass
	FsyncP50Ns       float64 `json:"fsync_p50_ns,omitempty"`      // durable pass
	FsyncP99Ns       float64 `json:"fsync_p99_ns,omitempty"`      // durable pass
	WALAppendBytes   uint64  `json:"wal_append_bytes,omitempty"`  // durable pass

	// Overload pass (op "overload", `ccfd bench overload`): offered versus
	// achieved request rate with and without admission control, plus the
	// success-latency tail. ShedRate counts fast 503/429 rejections and
	// client-side drops; Clients carries the admission MaxInflight.
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	GoodputQPS float64 `json:"goodput_qps,omitempty"`
	ShedRate   float64 `json:"shed_rate,omitempty"`
	P50Ns      float64 `json:"p50_ns,omitempty"`
	P99Ns      float64 `json:"p99_ns,omitempty"`
	P999Ns     float64 `json:"p999_ns,omitempty"`

	// Protocol pass (impl "daemon", `-protocols`): the same query replay
	// through a real in-process daemon, so the JSON-vs-binary wire tax is
	// a committed record rather than folklore. ns_per_op stays per key.
	Protocol  string `json:"protocol,omitempty"`  // json | binary
	Transport string `json:"transport,omitempty"` // http | tcp | tcp-pipelined

	// Tracing pass (impl "sharded+trace"): TraceOverheadNs is the added
	// wall cost per request (batch) of carrying an enabled-but-unsampled
	// trace context through the probe path versus the untraced loop;
	// PhaseAttribution summarizes where request time went in the fully
	// sampled pass (p50/p99 per phase, the `ccfd bench` form of the
	// daemon's ccfd_trace_phase_seconds histograms).
	TraceOverheadNs  float64                    `json:"trace_overhead_ns,omitempty"`
	PhaseAttribution map[string]trace.PhaseStat `json:"phase_attribution,omitempty"`
}

// benchConfig parameterizes one bench run.
type benchConfig struct {
	keys    int
	queries int
	batch   int
	shards  []int
	variant core.Variant
	alpha   float64
	clients int
	seed    int64
	// durableFsync, when non-empty, adds a WAL-backed insert pass per
	// shard count under that fsync policy ("off" skips it).
	durableFsync string
	// durableDir hosts the throwaway store directories; empty = TempDir.
	durableDir string
	// contendedClients, when > 0, adds a contended pass per shard count:
	// that many goroutines at readFrac read batches, against both the
	// seqlock and the forced-RLock read path.
	contendedClients int
	readFrac         float64
	// metrics folds scraped metric summaries (seqlock retries/fallbacks,
	// fsync latency, WAL bytes) into the records.
	metrics bool
	// protocols, when non-empty, adds daemon passes replaying the query
	// workload over the listed wire protocols (json, binary).
	protocols string
}

func benchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	keys := fs.Int("keys", 100000, "distinct keys inserted")
	queries := fs.Int("queries", 1000000, "queries replayed")
	batch := fs.Int("batch", 1024, "keys per batched request")
	shardsFlag := fs.String("shards", "1,4,16", "comma-separated shard counts")
	variantFlag := fs.String("variant", "chained", "filter variant")
	alpha := fs.Float64("alpha", 1.1, "Zipf-Mandelbrot skew of the query workload")
	clients := fs.Int("clients", 0, "concurrent client goroutines (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "workload and hashing seed")
	out := fs.String("out", "BENCH_serve.json", "JSON results path (empty = skip)")
	durableFsync := fs.String("durable-fsync", "interval", "also bench WAL-backed inserts under this fsync policy (always|interval|never, off = skip)")
	durableDir := fs.String("durable-dir", "", "directory for the durable bench's throwaway stores (empty = temp)")
	contendedClients := fs.Int("contended-clients", 4, "goroutines for the contended read/write pass (0 = skip)")
	readFrac := fs.Float64("read-frac", 0.95, "fraction of read batches in the contended pass")
	metrics := fs.Bool("metrics", true, "scrape the pass's metrics before/after and fold seqlock-retry and fsync-latency summaries into the records")
	protocols := fs.String("protocols", "json,binary", "comma-separated wire protocols for the daemon pass (json, binary; empty = skip)")
	probeEngine := fs.String("probe-engine", "auto", "batch probe engine: auto, scalar, or an explicit kernel name (avx2, neon)")
	fs.Parse(args)

	if err := simd.SetEngine(*probeEngine); err != nil {
		return err
	}

	variant, err := server.ParseVariant(*variantFlag)
	if err != nil {
		return err
	}
	if *keys < 1 || *queries < 1 || *batch < 1 {
		return fmt.Errorf("-keys, -queries and -batch must be at least 1")
	}
	if *clients < 0 {
		return fmt.Errorf("-clients must be non-negative")
	}
	var shardCounts []int
	for _, s := range strings.Split(*shardsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -shards entry %q", s)
		}
		shardCounts = append(shardCounts, n)
	}
	nClients := *clients
	if nClients == 0 {
		nClients = runtime.GOMAXPROCS(0)
	}
	if *readFrac < 0 || *readFrac > 1 {
		return fmt.Errorf("-read-frac must be in [0,1]")
	}
	cfg := benchConfig{
		keys: *keys, queries: *queries, batch: *batch, shards: shardCounts,
		variant: variant, alpha: *alpha, clients: nClients, seed: *seed,
		durableFsync: *durableFsync, durableDir: *durableDir,
		contendedClients: *contendedClients, readFrac: *readFrac,
		metrics: *metrics, protocols: *protocols,
	}
	results, err := runBench(cfg, os.Stdout)
	if err != nil {
		return err
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d records to %s\n", len(results), *out)
	}
	return nil
}

// runBench replays a Zipf-skewed workload against the single-lock
// SyncFilter and the sharded filter at each shard count, writing a table
// to w and returning the JSON records.
func runBench(cfg benchConfig, w io.Writer) ([]BenchResult, error) {
	keys := make([]uint64, cfg.keys)
	attrs := make([][]uint64, cfg.keys)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + uint64(cfg.seed)
		attrs[i] = []uint64{uint64(i % 8), uint64(i % 5)}
	}
	// Zipf-Mandelbrot rank sampling (the paper's multiset skew, c = 2.7):
	// rank r maps to the r-th key, so a few hot keys dominate the replay.
	dist, err := zipfmd.New(cfg.alpha, 2.7, cfg.keys, cfg.seed)
	if err != nil {
		return nil, err
	}
	workload := make([]uint64, cfg.queries)
	for i := range workload {
		workload[i] = keys[dist.Sample()-1]
	}
	pred := core.And(core.Eq(0, 1))
	params := core.Params{Variant: cfg.variant, NumAttrs: 2, Capacity: cfg.keys * 2, Seed: uint64(cfg.seed)}
	mkResult := func(op, impl string, shards, batch, ops int, m measurement) BenchResult {
		ns := float64(m.elapsed.Nanoseconds()) / float64(ops)
		return BenchResult{
			Op: op, Impl: impl, Variant: cfg.variant.String(), Shards: shards,
			Batch: batch, NsPerOp: ns, QPS: 1e9 / ns,
			AllocsPerOp: float64(m.allocs) / float64(ops),
			BytesPerOp:  float64(m.bytes) / float64(ops),
			Cores:       runtime.NumCPU(),
			Goarch:      runtime.GOARCH,
			CPUFeatures: simd.Features(),
			ProbeEngine: simd.Active(),
			Alpha:       cfg.alpha, Keys: cfg.keys, Ops: ops,
		}
	}
	var results []BenchResult

	// Single-lock baseline: point calls from concurrent clients.
	sf, err := ccf.NewSync(params)
	if err != nil {
		return nil, err
	}
	m := measured(func() time.Duration {
		return inParallel(cfg.clients, cfg.keys, func(c, lo, hi int) {
			for i := lo; i < hi; i++ {
				sf.Insert(keys[i], attrs[i])
			}
		})
	})
	results = append(results, mkResult("insert", "sync", 1, 1, cfg.keys, m))
	m = measured(func() time.Duration {
		return inParallel(cfg.clients, len(workload), func(c, lo, hi int) {
			for i := lo; i < hi; i++ {
				sf.Query(workload[i], pred)
			}
		})
	})
	results = append(results, mkResult("query", "sync", 1, 1, len(workload), m))

	// Sharded: batched calls from concurrent clients through the *Into
	// entry points with one recycled result buffer per client — the
	// steady-state server shape, which the allocs/op column verifies is
	// allocation-free. Workers stays 1 so the client goroutines are the
	// only parallelism.
	for _, n := range cfg.shards {
		s, err := shard.New(shard.Options{Shards: n, Workers: 1, Params: params})
		if err != nil {
			return nil, err
		}
		errBufs := make([][]error, cfg.clients)
		m = measured(func() time.Duration {
			return inParallelBatched(cfg.clients, cfg.keys, cfg.batch, func(c, lo, hi int) {
				errBufs[c] = s.InsertBatchInto(errBufs[c][:0], keys[lo:hi], attrs[lo:hi])
			})
		})
		results = append(results, mkResult("insert", "sharded", n, cfg.batch, cfg.keys, m))
		outBufs := make([][]bool, cfg.clients)
		m = measured(func() time.Duration {
			return inParallelBatched(cfg.clients, len(workload), cfg.batch, func(c, lo, hi int) {
				outBufs[c] = s.QueryBatchInto(outBufs[c][:0], workload[lo:hi], pred)
			})
		})
		results = append(results, mkResult("query", "sharded", n, cfg.batch, len(workload), m))

		// Uniform batched probe — the committed BenchmarkShardedQueryBatch
		// replayed through the harness (its own packed-variant filter,
		// uniform present keys, single client, sliding batch window) so
		// the perf trajectory's headline ns/key number is recorded here
		// and not only in `go test -bench` output. Distinguished from
		// the Zipf pass by impl and alpha=0.
		uni, err := runUniformBatch(n, cfg, mkResult)
		if err != nil {
			return nil, err
		}
		results = append(results, uni)

		// Tracing pass: the same query replay with a request trace
		// context threaded through the probe path, recording what the
		// tracer costs when enabled-but-unsampled (the production
		// default) plus the per-phase attribution of a fully sampled run.
		tr, err := benchTraced(cfg, params, n, keys, attrs, workload, pred, mkResult)
		if err != nil {
			return nil, err
		}
		results = append(results, tr)
	}

	// Contended mode: N goroutines hammering the same sharded filter at a
	// read/write batch mix, once through the seqlock read path and once
	// with PessimisticReads forcing the RLock baseline — the multi-
	// goroutine serving throughput BENCH_serve.json previously never
	// recorded. On a single core the two mostly measure the same
	// scheduling; the seqlock's win is that readers neither bounce the
	// lock's cache line nor block behind writers, which needs real
	// parallelism to show.
	if cfg.contendedClients > 0 {
		for _, n := range cfg.shards {
			for _, mode := range []struct {
				impl        string
				pessimistic bool
			}{{"sharded", false}, {"sharded-rlock", true}} {
				r, err := benchContended(cfg, params, n, mode.impl, mode.pessimistic,
					keys, attrs, workload, pred, mkResult)
				if err != nil {
					return nil, err
				}
				results = append(results, r)
			}
		}
	}

	// Protocol mode: the query workload replayed against a real in-process
	// daemon (HTTP + raw-TCP wire listener) per protocol, at the highest
	// configured shard count, so BENCH_serve.json carries the
	// serialization-and-transport tax next to the in-process bound.
	if strings.TrimSpace(cfg.protocols) != "" {
		n := cfg.shards[len(cfg.shards)-1]
		pr, err := benchProtocols(cfg, params, n, keys, attrs, workload, mkResult)
		if err != nil {
			return nil, err
		}
		results = append(results, pr...)
	}

	// Durable mode: the same batched insert through the store's WAL, so
	// BENCH_serve.json records what durability costs on the write path.
	if cfg.durableFsync != "" && cfg.durableFsync != "off" {
		policy, err := store.ParseFsyncPolicy(cfg.durableFsync)
		if err != nil {
			return nil, err
		}
		for _, n := range cfg.shards {
			dir, err := os.MkdirTemp(cfg.durableDir, "ccfd-bench-*")
			if err != nil {
				return nil, err
			}
			r, err := benchDurableInsert(cfg, policy, dir, n, keys, attrs, mkResult)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
	}

	if w != nil {
		fmt.Fprintf(w, "%-7s %-13s %-8s %7s %6s %12s %14s %12s %12s %-10s\n",
			"op", "impl", "variant", "shards", "batch", "ns/op", "qps", "allocs/op", "B/op", "mode")
		for _, r := range results {
			mode := r.Fsync
			if r.Clients > 0 {
				mode = fmt.Sprintf("%dc/%.0f%%r", r.Clients, r.ReadFrac*100)
			}
			if r.Protocol != "" {
				mode = r.Protocol + "/" + r.Transport
			}
			fmt.Fprintf(w, "%-7s %-13s %-8s %7d %6d %12.1f %14.0f %12.4f %12.1f %-10s\n",
				r.Op, r.Impl, r.Variant, r.Shards, r.Batch, r.NsPerOp, r.QPS,
				r.AllocsPerOp, r.BytesPerOp, mode)
		}
	}
	return results, nil
}

// scrapeValues renders the registry's Prometheus exposition — the same
// bytes GET /metrics serves — and parses every sample line into a
// series → value map, so a bench pass can diff two scrapes exactly like
// an external Prometheus would.
func scrapeValues(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	vals := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			vals[line[:i]] = v
		}
	}
	return vals
}

// benchContended replays the query workload from contendedClients
// goroutines with every writePeriod-th batch replaced by a batched insert
// of fresh keys — the read-heavy contended serving shape. Fresh write
// keys come from a bounded churn range so occupancy stays within the
// table's sizing however many queries are configured; once the range is
// exhausted the writes become re-inserts (deduplicated, but still taking
// the write lock and bumping the seqlock, which is the contention that
// matters here).
func benchContended(cfg benchConfig, params core.Params, shards int, impl string,
	pessimistic bool, keys []uint64, attrs [][]uint64, workload []uint64, pred core.Predicate,
	mkResult func(op, impl string, shards, batch, ops int, m measurement) BenchResult) (BenchResult, error) {
	s, err := shard.New(shard.Options{
		Shards: shards, Workers: 1, PessimisticReads: pessimistic, Params: params,
	})
	if err != nil {
		return BenchResult{}, err
	}
	for i, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			return BenchResult{}, fmt.Errorf("contended preload %d: %w", i, err)
		}
	}
	var before map[string]float64
	var om *obs.Registry
	if cfg.metrics {
		om = obs.NewRegistry()
		sm := s.Metrics()
		om.RegisterCounter("ccfd_seqlock_retries_total",
			"Optimistic probes discarded by a concurrent writer.", &sm.SeqlockRetries)
		om.RegisterCounter("ccfd_seqlock_fallbacks_total",
			"Reads served under the shard read lock.", &sm.SeqlockFallbacks)
		before = scrapeValues(om)
	}
	writePeriod := 0 // 0 = never write
	if cfg.readFrac < 1 {
		writePeriod = int(1/(1-cfg.readFrac) + 0.5)
		if writePeriod < 1 {
			writePeriod = 1
		}
	}
	churn := cfg.keys / 2
	if churn < cfg.batch {
		churn = cfg.batch
	}
	clients := cfg.contendedClients
	outBufs := make([][]bool, clients)
	errBufs := make([][]error, clients)
	wAttr := []uint64{1, 1}
	m := measured(func() time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			lo, hi := c*len(workload)/clients, (c+1)*len(workload)/clients
			wg.Add(1)
			go func() {
				defer wg.Done()
				wkeys := make([]uint64, 0, cfg.batch)
				wattrs := make([][]uint64, 0, cfg.batch)
				next := 0
				batchNo := 0
				for ; lo < hi; lo += cfg.batch {
					end := lo + cfg.batch
					if end > hi {
						end = hi
					}
					batchNo++
					if writePeriod > 0 && batchNo%writePeriod == 0 {
						wkeys, wattrs = wkeys[:0], wattrs[:0]
						for j := lo; j < end; j++ {
							// Disjoint from the preloaded key space; cycled
							// within the per-client churn range.
							k := uint64(1)<<40 + uint64(c)<<32 + uint64(next%churn)
							next++
							wkeys = append(wkeys, k)
							wattrs = append(wattrs, wAttr)
						}
						errBufs[c] = s.InsertBatchInto(errBufs[c][:0], wkeys, wattrs)
					} else {
						outBufs[c] = s.QueryBatchInto(outBufs[c][:0], workload[lo:end], pred)
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	})
	r := mkResult("mixed", impl, shards, cfg.batch, len(workload), m)
	r.Clients = clients
	r.ReadFrac = cfg.readFrac
	if om != nil {
		after := scrapeValues(om)
		r.SeqlockRetries = uint64(after["ccfd_seqlock_retries_total"] - before["ccfd_seqlock_retries_total"])
		r.SeqlockFallbacks = uint64(after["ccfd_seqlock_fallbacks_total"] - before["ccfd_seqlock_fallbacks_total"])
	}
	return r, nil
}

// benchTraced measures the tracer on the batched query path at one shard
// count: an untraced baseline loop, the same loop carrying an
// enabled-but-unsampled request trace (the production default — must be
// within noise of the baseline and allocation-free), and a fully sampled
// pass whose per-phase histograms become the record's PhaseAttribution.
// All three run single-client so the delta is the tracer's, not the
// scheduler's.
func benchTraced(cfg benchConfig, params core.Params, shards int,
	keys []uint64, attrs [][]uint64, workload []uint64, pred core.Predicate,
	mkResult func(op, impl string, shards, batch, ops int, m measurement) BenchResult) (BenchResult, error) {
	s, err := shard.New(shard.Options{Shards: shards, Workers: 1, Params: params})
	if err != nil {
		return BenchResult{}, err
	}
	for i, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			return BenchResult{}, fmt.Errorf("traced preload %d: %w", i, err)
		}
	}
	out := make([]bool, 0, cfg.batch)
	replay := func(fn func(batch []uint64)) time.Duration {
		start := time.Now()
		for lo := 0; lo < len(workload); lo += cfg.batch {
			end := lo + cfg.batch
			if end > len(workload) {
				end = len(workload)
			}
			fn(workload[lo:end])
		}
		return time.Since(start)
	}
	batches := (len(workload) + cfg.batch - 1) / cfg.batch

	base := measured(func() time.Duration {
		return replay(func(b []uint64) { out = s.QueryBatchInto(out[:0], b, pred) })
	})
	unsampled := trace.New(trace.Options{Recorder: trace.NewRecorder(8, 8)})
	traced := measured(func() time.Duration {
		return replay(func(b []uint64) {
			r := unsampled.StartRequest("")
			out, _ = s.QueryBatchContext(nil, out[:0], b, pred, r)
			unsampled.Finish(r, 200)
		})
	})
	sampled := trace.New(trace.Options{SampleEvery: 1, Recorder: trace.NewRecorder(8, 8)})
	replay(func(b []uint64) {
		r := sampled.StartRequest("")
		out, _ = s.QueryBatchContext(nil, out[:0], b, pred, r)
		sampled.Finish(r, 200)
	})

	r := mkResult("query", "sharded+trace", shards, cfg.batch, len(workload), traced)
	r.TraceOverheadNs = float64((traced.elapsed - base.elapsed).Nanoseconds()) / float64(batches)
	r.PhaseAttribution = sampled.Attribution()
	return r, nil
}

// benchDurableInsert replays the insert workload through a WAL-backed
// filter in a throwaway store at one shard count.
func benchDurableInsert(cfg benchConfig, policy store.FsyncPolicy, dir string, shards int,
	keys []uint64, attrs [][]uint64,
	mkResult func(op, impl string, shards, batch, ops int, m measurement) BenchResult) (BenchResult, error) {
	st, err := store.Open(store.Options{Dir: dir, Fsync: policy})
	if err != nil {
		return BenchResult{}, err
	}
	defer st.Close()
	params := core.Params{Variant: cfg.variant, NumAttrs: 2, Capacity: cfg.keys * 2, Seed: uint64(cfg.seed)}
	s, err := shard.New(shard.Options{Shards: shards, Workers: 1, Params: params})
	if err != nil {
		return BenchResult{}, err
	}
	fl, err := st.Create("bench", s)
	if err != nil {
		return BenchResult{}, err
	}
	var before map[string]float64
	var om *obs.Registry
	sm := st.Metrics()
	if cfg.metrics {
		om = obs.NewRegistry()
		om.RegisterCounter("ccfd_wal_append_bytes_total",
			"WAL bytes appended.", &sm.WALAppendBytes)
		om.RegisterHistogram("ccfd_wal_fsync_seconds",
			"WAL fsync latency.", sm.FsyncLatency)
		before = scrapeValues(om)
	}
	errBufs := make([][]error, cfg.clients)
	var insErr error
	var mu sync.Mutex
	m := measured(func() time.Duration {
		return inParallelBatched(cfg.clients, cfg.keys, cfg.batch, func(c, lo, hi int) {
			errs, err := fl.InsertBatchInto(errBufs[c][:0], keys[lo:hi], attrs[lo:hi])
			errBufs[c] = errs
			if err != nil {
				mu.Lock()
				insErr = err
				mu.Unlock()
			}
		})
	})
	if insErr != nil {
		return BenchResult{}, insErr
	}
	r := mkResult("insert", "sharded+wal", shards, cfg.batch, cfg.keys, m)
	r.Fsync = policy.String()
	if om != nil {
		// Force the tail of the run durable first: a short pass can finish
		// inside one group-commit interval, leaving its only fsync pending.
		if err := fl.Sync(); err != nil {
			return BenchResult{}, err
		}
		after := scrapeValues(om)
		r.WALAppendBytes = uint64(after["ccfd_wal_append_bytes_total"] - before["ccfd_wal_append_bytes_total"])
		r.FsyncCount = uint64(after["ccfd_wal_fsync_seconds_count"] - before["ccfd_wal_fsync_seconds_count"])
		// The exposition carries buckets, not quantiles; summarize those
		// from the histogram handle. Quantile returns scaled units
		// (seconds here), the record wants ns.
		r.FsyncP50Ns = sm.FsyncLatency.Quantile(0.50) * 1e9
		r.FsyncP99Ns = sm.FsyncLatency.Quantile(0.99) * 1e9
	}
	return r, nil
}

// measurement pairs wall time with the process-wide heap delta of a run.
type measurement struct {
	elapsed time.Duration
	allocs  uint64
	bytes   uint64
}

// runUniformBatch mirrors internal/shard's BenchmarkShardedQueryBatch:
// a packed default-variant filter at 50% load, every probed key present,
// a single client sliding a 1024-key batch window. Its ns/key is the
// headline number the perf trajectory tracks for the vectorized probe
// pipeline.
func runUniformBatch(shards int, cfg benchConfig,
	mkResult func(op, impl string, shards, batch, ops int, m measurement) BenchResult) (BenchResult, error) {
	const batch = 1024
	params := core.Params{NumAttrs: 1, Capacity: 1 << 16, Seed: uint64(cfg.seed)}
	s, err := shard.New(shard.Options{Shards: shards, Workers: 1, Params: params})
	if err != nil {
		return BenchResult{}, err
	}
	keys := make([]uint64, 1<<15)
	attrs := make([][]uint64, len(keys))
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + uint64(cfg.seed)
		attrs[i] = []uint64{uint64(i % 11)}
	}
	for _, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			return BenchResult{}, err
		}
	}
	pred := core.And(core.Eq(0, 3))
	out := make([]bool, 0, batch)
	ops := cfg.queries / batch * batch
	if ops < batch {
		ops = batch
	}
	span := len(keys) - batch
	m := measured(func() time.Duration {
		start := time.Now()
		for done := 0; done < ops; done += batch {
			lo := done % span
			out = s.QueryBatchInto(out[:0], keys[lo:lo+batch], pred)
		}
		return time.Since(start)
	})
	r := mkResult("query", "sharded-uniform", shards, batch, ops, m)
	r.Alpha = 0
	r.Variant = params.Variant.String()
	r.Keys = len(keys)
	return r, nil
}

// measured runs fn between two MemStats readings. The deltas include the
// benchmark harness's own client goroutines, so a steady-state
// allocation-free path reports a small near-zero fraction per op rather
// than exactly zero.
func measured(fn func() time.Duration) measurement {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	elapsed := fn()
	runtime.ReadMemStats(&after)
	return measurement{
		elapsed: elapsed,
		allocs:  after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
	}
}

// inParallel splits [0, n) into one contiguous chunk per client, runs fn
// on each concurrently, and returns the wall time. fn receives the client
// index so callers can keep per-client scratch (recycled result buffers).
func inParallel(clients, n int, fn func(c, lo, hi int)) time.Duration {
	if clients > n {
		clients = n
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		lo, hi := c*n/clients, (c+1)*n/clients
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, lo, hi)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// inParallelBatched is inParallel with each client walking its chunk in
// batch-sized requests.
func inParallelBatched(clients, n, batch int, fn func(c, lo, hi int)) time.Duration {
	return inParallel(clients, n, func(c, lo, hi int) {
		for ; lo < hi; lo += batch {
			end := lo + batch
			if end > hi {
				end = hi
			}
			fn(c, lo, end)
		}
	})
}
