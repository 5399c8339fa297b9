// Command ccfd is the conditional-cuckoo-filter daemon: it serves named,
// sharded filters over HTTP for the paper's pushdown deployment (filters
// built once, probed at high rate by query processors, §3). Its one
// subcommand is serve; the repository's benchmark (perfbench/run.sh)
// drives it end to end.
//
// Usage:
//
//	ccfd serve [-addr :8437] [-max-body 67108864]
//	           [-data-dir DIR] [-fsync always|interval|never]
//	           [-fsync-interval 5ms] [-checkpoint-bytes N]
//	           [-checkpoint-records N] [-pprof-addr 127.0.0.1:6060]
//	           [-auto-grow] [-metrics-addr 127.0.0.1:9437]
//	           [-log-format text|json] [-log-level info]
//	           [-slow-query 0] [-trace-sample 0] [-probe-engine auto]
//	           [-request-timeout 0] [-max-inflight 0] [-max-queue 0]
//	           [-queue-timeout 1s] [-rearm-min 0] [-rearm-max 0]
//	           [-fault-schedule ""]
//
// serve exposes the internal/server API:
//
//	PUT    /filters/{name}           create or replace a filter
//	POST   /filters/{name}/insert    batched inserts
//	POST   /filters/{name}/query     batched queries (a via_view hint is
//	                                 accepted and ignored)
//	GET    /filters/{name}/stats     one filter's stats
//	GET    /filters/{name}/snapshot  binary snapshot
//	POST   /filters/{name}/restore   restore from a snapshot
//	DELETE /filters/{name}           drop a filter
//	GET    /stats, GET /healthz, GET /readyz, GET /metrics
//
// /healthz is pure liveness (200 as soon as the listener is up);
// /readyz answers 503 until store recovery completes, then reports the
// unrecoverable-filter count. /metrics serves the Prometheus text
// exposition — request/latency series per endpoint, per-filter growth
// and occupancy series, and the WAL/checkpoint/fold families; see the
// README's Observability section for the catalogue. -metrics-addr
// additionally serves /metrics on a separate private address.
// Logs are structured (log/slog): -log-format picks text or json,
// -log-level sets the floor, and -slow-query logs any request at or
// above the given latency at Warn with its request and trace IDs.
//
// Every request carries a W3C trace context (incoming traceparent
// honored, one emitted on the response) with per-phase spans — decode,
// shard probe, WAL append, fsync wait, encode — recorded at zero
// allocations. Requests over -slow-query are pinned in a flight
// recorder served by GET /debug/traces (?format=text for a waterfall);
// -trace-sample N additionally captures every Nth request and feeds
// the ccfd_trace_phase_seconds attribution histograms, and latency
// histogram buckets carry trace-ID exemplars under /metrics?exemplars=1.
// See the README's Observability section.
//
// With -pprof-addr the daemon also serves net/http/pprof on a separate
// (keep it private) address, so hot-path regressions can be profiled in
// production: `go tool pprof http://127.0.0.1:6060/debug/pprof/profile`.
//
// With -data-dir the daemon is durable: every mutation is written to a
// per-filter WAL before it is acknowledged, background checkpoints fold
// the log into checksummed segments, and startup recovers the newest
// valid segment plus the WAL tail — so restarts (including SIGKILL)
// serve the same answers as before. See the README's Durability section.
//
// When the disk misbehaves (ENOSPC, I/O errors, a failed fsync) a
// durable filter degrades to read-only instead of taking the daemon
// down: queries keep serving from memory, writes answer 503 with
// Retry-After, and a background probe (backoff bounded by -rearm-min /
// -rearm-max) restores write availability on a fresh WAL once the disk
// recovers. -fault-schedule injects those failures deterministically for
// testing; see the README's "Failure modes and degraded operation".
//
// -max-inflight bounds concurrently served requests (excess waits in a
// -max-queue deep queue for up to -queue-timeout, then sheds 503 +
// Retry-After), -request-timeout attaches a per-request deadline that
// batched shard work observes between shard groups (exceeded → 504),
// and a per-filter token-bucket rate limit can be set via the PUT body's
// rate_limit policy (throttled → 429 + Retry-After).
//
// With -auto-grow every filter gets the default elastic-capacity policy:
// instead of returning "filter full" once its sizing is exhausted, a
// filter opens doubled ladder levels (up to the policy's budget), and on
// a durable deployment a background fold rebuilds it right-sized from
// WAL replay once the ladder gets tall. Filters created with an explicit
// auto_grow policy in the PUT body keep their own settings. See the
// README's Elastic capacity section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux; served only on -pprof-addr
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ccf/internal/fault"
	"ccf/internal/obs"
	"ccf/internal/obs/trace"
	"ccf/internal/server"
	"ccf/internal/simd"
	"ccf/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serveCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ccfd: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccfd: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  ccfd serve [-addr :8437] [-max-body BYTES]
             [-data-dir DIR] [-fsync always|interval|never]
             [-fsync-interval 5ms] [-checkpoint-bytes N] [-checkpoint-records N]
             [-pprof-addr 127.0.0.1:6060] [-auto-grow]
             [-metrics-addr 127.0.0.1:9437] [-log-format text|json]
             [-log-level debug|info|warn|error] [-slow-query DURATION]
             [-trace-sample N] [-probe-engine auto|scalar|avx2]
             [-request-timeout DURATION] [-max-inflight N] [-max-queue N]
             [-queue-timeout 1s] [-rearm-min DURATION] [-rearm-max DURATION]
             [-fault-schedule SCHEDULE]
`)
}

// serveConfig carries everything serveUntilDone needs; tests build it
// directly and drive the loop with a cancelable context.
type serveConfig struct {
	maxBody     int64
	dataDir     string // empty = in-memory only
	fsync       store.FsyncPolicy
	flushEvery  time.Duration
	ckptBytes   int64
	ckptRecords int
	pprofAddr   string // empty = pprof disabled
	autoGrow    bool   // default elastic-capacity policy for all filters
	quiet       bool   // suppress stderr chatter (tests)

	wireAddr    string        // raw-TCP binary wire listener (empty = disabled)
	metricsAddr string        // also serve /metrics here (empty = main listener only)
	logFormat   string        // "text" (default) or "json"
	logLevel    slog.Level    // zero value = Info
	slowQuery   time.Duration // log requests at/above this latency; 0 disables
	traceSample int           // trace every Nth request; 0 = slow-only tracing
	logW        io.Writer     // log destination override (tests); nil = stderr

	// Admission control and deadlines (zero value = off).
	admission server.AdmissionOptions
	// faultSchedule, when non-empty, injects deterministic storage
	// faults under the durable store (dev/test only; see -fault-schedule).
	faultSchedule string
	// rearmMin/rearmMax bound the degraded-mode recovery probe backoff;
	// zero takes the store defaults.
	rearmMin, rearmMax time.Duration
}

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8437", "listen address")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "maximum HTTP request body / wire frame payload bytes (oversize gets 413 or a too_large error frame)")
	wireAddr := fs.String("wire-addr", "", "also serve the binary wire protocol on this raw-TCP address (empty = disabled); see the README's Wire protocol section")
	dataDir := fs.String("data-dir", "", "durable store directory (empty = in-memory only)")
	fsyncFlag := fs.String("fsync", "interval", "WAL fsync policy: always|interval|never")
	flushEvery := fs.Duration("fsync-interval", 5*time.Millisecond, "group-commit flush cadence for -fsync interval|never")
	ckptBytes := fs.Int64("checkpoint-bytes", 64<<20, "checkpoint a filter after this many WAL bytes (0 disables)")
	ckptRecords := fs.Int("checkpoint-records", 1<<20, "checkpoint a filter after this many WAL records (0 disables)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled); keep it private")
	autoGrow := fs.Bool("auto-grow", false, "apply the default elastic-capacity policy to filters created without one (and to recovered filters): grow instead of returning full, fold back when the ladder gets tall")
	metricsAddr := fs.String("metrics-addr", "", "also serve /metrics on this address (empty = main listener only); keep it private")
	logFormat := fs.String("log-format", "text", "log output format: text|json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug|info|warn|error")
	slowQuery := fs.Duration("slow-query", 0, "log requests at or above this latency at Warn and pin their trace in /debug/traces (0 disables)")
	traceSample := fs.Int("trace-sample", 0, "capture every Nth request's trace into /debug/traces and the phase-attribution histograms (0 = slow requests only, 1 = all)")
	probeEngine := fs.String("probe-engine", "auto", "batch probe engine: auto (detected best), scalar, or an explicit kernel name (avx2)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline; batched work past it answers 504 (0 disables)")
	maxInflight := fs.Int("max-inflight", 0, "maximum concurrently served requests; excess queues then sheds 503 (0 disables admission control)")
	maxQueue := fs.Int("max-queue", 0, "admission queue depth once -max-inflight is saturated (0 = shed immediately)")
	queueTimeout := fs.Duration("queue-timeout", server.DefaultQueueTimeout, "longest a request waits in the admission queue before shedding 503")
	faultSchedule := fs.String("fault-schedule", "", "inject deterministic storage faults under -data-dir, e.g. 'fsync:3:enospc; write@wal:bytes=4096:torn' (dev/test only)")
	rearmMin := fs.Duration("rearm-min", 0, "initial backoff for the degraded-mode recovery probe (0 = store default)")
	rearmMax := fs.Duration("rearm-max", 0, "backoff ceiling for the degraded-mode recovery probe (0 = store default)")
	fs.Parse(args)

	if err := simd.SetEngine(*probeEngine); err != nil {
		return err
	}
	if *faultSchedule != "" {
		// Fail fast on a bad schedule; the store re-parses at open time.
		if _, err := fault.Parse(*faultSchedule); err != nil {
			return err
		}
	}
	policy, err := store.ParseFsyncPolicy(*fsyncFlag)
	if err != nil {
		return err
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	cfg := serveConfig{
		maxBody:     *maxBody,
		wireAddr:    *wireAddr,
		dataDir:     *dataDir,
		fsync:       policy,
		flushEvery:  *flushEvery,
		ckptBytes:   *ckptBytes,
		ckptRecords: *ckptRecords,
		pprofAddr:   *pprofAddr,
		autoGrow:    *autoGrow,
		metricsAddr: *metricsAddr,
		logFormat:   *logFormat,
		logLevel:    level,
		slowQuery:   *slowQuery,
		traceSample: *traceSample,
		admission: server.AdmissionOptions{
			MaxInflight:    *maxInflight,
			MaxQueue:       *maxQueue,
			QueueTimeout:   *queueTimeout,
			RequestTimeout: *reqTimeout,
		},
		faultSchedule: *faultSchedule,
		rearmMin:      *rearmMin,
		rearmMax:      *rearmMax,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ccfd: serving on %s\n", ln.Addr())
	return serveUntilDone(ctx, ln, cfg)
}

// startPprof serves net/http/pprof's DefaultServeMux handlers on their
// own listener, so profiling stays off the public API address and can be
// firewalled separately. Closing the returned server stops it (and its
// listener) cleanly.
func startPprof(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("pprof listen: %w", err)
	}
	srv := &http.Server{
		Handler:           http.DefaultServeMux, // where net/http/pprof registered
		ReadHeaderTimeout: 10 * time.Second,
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// spareConns closes, once a drain starts, every HTTP connection that has
// not yet delivered a request byte. net/http's Shutdown counts such a
// connection as busy for its first five seconds, so a client's pre-dialed
// spare socket would hold the drain past its grace period. It carries no
// request, so closing it cuts off nothing the daemon has acked.
type spareConns struct {
	mu       sync.Mutex
	draining bool
	fresh    map[net.Conn]struct{}
}

func (s *spareConns) track(c net.Conn, st http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(s.fresh, c)
	case s.draining:
		c.Close()
	default:
		s.fresh[c] = struct{}{}
	}
}

func (s *spareConns) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for c := range s.fresh {
		c.Close()
	}
	clear(s.fresh)
}

// disabledToNeg maps the flag convention "0 disables" onto the store's
// "negative disables, 0 means default".
func disabledToNeg[T int | int64](v T) T {
	if v == 0 {
		return -1
	}
	return v
}

func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
	}
}

// serveUntilDone runs the HTTP API on ln until ctx is cancelled, then
// shuts down gracefully: HTTP drains first, then the store is flushed,
// fsynced and closed, and only then is the final metrics summary logged
// and the log flushed — so the last line always describes the state
// that actually hit disk. Tests drive it directly with a :0 listener.
//
// The listener starts answering before the store opens: /healthz is live
// immediately, while /readyz answers 503 until recovery completes (and
// then reports how many filter directories were unrecoverable). Load
// balancers should gate on /readyz; a long WAL replay is alive but not
// ready.
func serveUntilDone(ctx context.Context, ln net.Listener, cfg serveConfig) error {
	logDst := io.Writer(os.Stderr)
	if cfg.logW != nil {
		logDst = cfg.logW
	} else if cfg.quiet {
		logDst = io.Discard
	}
	logger, closeLog := obs.NewLogger(logDst, cfg.logFormat, cfg.logLevel)
	defer closeLog()
	if cfg.pprofAddr != "" {
		psrv, addr, err := startPprof(cfg.pprofAddr)
		if err != nil {
			return err
		}
		defer psrv.Close()
		logger.Info("pprof serving", "addr", "http://"+addr+"/debug/pprof/")
	}
	om := obs.NewRegistry()
	// The probe-engine info gauge follows the Prometheus _info convention:
	// constant 1, identity in the labels — dashboards join on it to split
	// perf series by kernel, and a fleet can spot a host that silently
	// fell back to scalar.
	om.RegisterGaugeFunc("ccfd_probe_engine_info",
		"Active batch probe engine and detected CPU features (value is always 1).",
		func() float64 { return 1 },
		obs.Label{Key: "engine", Value: simd.Active()},
		obs.Label{Key: "features", Value: simd.Features()})
	logger.Info("probe engine",
		"engine", simd.Active(),
		"best", simd.Best(),
		"goarch", runtime.GOARCH,
		"cpu_features", simd.Features())
	// Tracing is always on: unsampled requests still carry a trace
	// context (zero-alloc), slow requests are pinned in the flight
	// recorder, and -trace-sample adds every-Nth capture for phase
	// attribution. The tracer's own counters and per-phase histograms
	// go through the same registry as everything else.
	tracer := trace.New(trace.Options{
		SampleEvery:   cfg.traceSample,
		SlowThreshold: cfg.slowQuery,
		Recorder:      trace.NewRecorder(32, 32),
	})
	tm := tracer.TracerMetrics()
	om.RegisterCounter("ccfd_traces_slow_total",
		"Traces pinned in the flight recorder for exceeding -slow-query.", &tm.SlowCaptured)
	om.RegisterCounter("ccfd_traces_sampled_total",
		"Traces captured by -trace-sample.", &tm.SampledCaptured)
	om.RegisterCounter("ccfd_trace_spans_dropped_total",
		"Spans dropped because a request exceeded its span buffer.", &tm.SpansDropped)
	for _, p := range trace.Phases() {
		om.RegisterHistogram("ccfd_trace_phase_seconds",
			"Per-phase latency attribution from sampled traces.",
			tracer.PhaseHistogram(p), obs.Label{Key: "phase", Value: p.String()})
	}
	health := &server.Health{}
	reg := server.NewRegistry(0)
	reg.AttachObs(om)
	if cfg.autoGrow {
		p := server.DefaultAutoGrowPolicy()
		reg.SetDefaultPolicy(&p)
		logger.Info("auto-grow on",
			"max_levels", p.MaxLevels,
			"growth_factor", p.GrowthFactor,
			"grow_at_load", p.GrowAtLoad,
			"fold_at_levels", p.FoldAtLevels)
	}
	if cfg.metricsAddr != "" {
		mln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen: %w", err)
		}
		mmux := http.NewServeMux()
		mmux.Handle("GET /metrics", om.Handler())
		msrv := &http.Server{Handler: mmux, ReadHeaderTimeout: 10 * time.Second}
		go msrv.Serve(mln)
		defer msrv.Close()
		logger.Info("metrics serving", "addr", "http://"+mln.Addr().String()+"/metrics")
	}

	// Serve before recovery so liveness and readiness are distinguishable:
	// the registry is attached to the store only once recovery completes,
	// and /readyz flips to 200 at the same moment.
	if cfg.admission.MaxInflight > 0 || cfg.admission.RequestTimeout > 0 {
		logger.Info("admission control on",
			"max_inflight", cfg.admission.MaxInflight,
			"max_queue", cfg.admission.MaxQueue,
			"queue_timeout", cfg.admission.QueueTimeout.String(),
			"request_timeout", cfg.admission.RequestTimeout.String())
	}
	// Slowloris and stuck-peer protection: header reads, whole-request
	// reads and response writes are all bounded, and idle keep-alives are
	// reaped. The write timeout comfortably exceeds any -request-timeout,
	// so the daemon's own deadline (504) fires before the socket's.
	api := server.NewServer(reg, server.HandlerOptions{
		MaxBodyBytes: cfg.maxBody,
		Metrics:      om,
		Logger:       logger,
		SlowQuery:    cfg.slowQuery,
		Health:       health,
		Tracer:       tracer,
		Admission:    cfg.admission,
	})
	srv := &http.Server{
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	spares := spareConns{fresh: map[net.Conn]struct{}{}}
	srv.ConnState = spares.track
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// The binary wire listener shares the HTTP side's admission limiter,
	// tracer, metrics, and frame core; it drains in the same graceful
	// shutdown below.
	var wireErrc chan error
	if cfg.wireAddr != "" {
		wln, err := net.Listen("tcp", cfg.wireAddr)
		if err != nil {
			srv.Close()
			<-errc
			return fmt.Errorf("wire listen: %w", err)
		}
		logger.Info("wire protocol serving", "addr", wln.Addr().String())
		wireErrc = make(chan error, 1)
		go func() { wireErrc <- api.ServeWire(wln) }()
	}

	var st *store.Store
	if cfg.dataDir != "" {
		sopts := store.Options{
			Dir:               cfg.dataDir,
			Fsync:             cfg.fsync,
			FlushInterval:     cfg.flushEvery,
			CheckpointBytes:   disabledToNeg(cfg.ckptBytes),
			CheckpointRecords: disabledToNeg(cfg.ckptRecords),
			RearmMin:          cfg.rearmMin,
			RearmMax:          cfg.rearmMax,
			Tracer:            tracer,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		}
		if cfg.faultSchedule != "" {
			sched, perr := fault.Parse(cfg.faultSchedule)
			if perr != nil {
				srv.Close()
				<-errc
				return fmt.Errorf("parsing -fault-schedule: %w", perr)
			}
			sopts.FS = fault.New(fault.OS, sched)
			logger.Warn("fault injection active — storage faults will be injected deliberately",
				"schedule", cfg.faultSchedule)
		}
		var err error
		st, err = store.Open(sopts)
		if err != nil {
			srv.Close()
			<-errc
			return fmt.Errorf("opening store: %w", err)
		}
		rs := st.RecoveryStats()
		logger.Info("store recovered",
			"dir", cfg.dataDir,
			"filters", rs.Filters,
			"segments_loaded", rs.SegmentsLoaded,
			"segments_bad", rs.SegmentsBad,
			"records_replayed", rs.RecordsReplayed,
			"records_skipped", rs.RecordsSkipped,
			"torn_tails", rs.TornTails,
			"unrecoverable", rs.Unrecoverable,
			"duration", rs.Duration.Round(time.Microsecond).String(),
			"fsync", cfg.fsync.String())
		reg.AttachStore(st)
		health.SetReady(rs.Unrecoverable)
	} else {
		health.SetReady(0)
	}

	select {
	case err := <-errc:
		if st != nil {
			st.Close()
		}
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if wireErrc != nil {
		if err := api.ShutdownWire(shutdownCtx); err != nil {
			logger.Warn("wire shutdown", "err", err.Error())
		}
		if err := <-wireErrc; !errors.Is(err, server.ErrWireClosed) {
			logger.Warn("wire listener", "err", err.Error())
		}
	}
	spares.drain()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		if st != nil {
			st.Close()
		}
		return err
	}
	if st != nil {
		// Flush and fsync every WAL so a graceful stop loses nothing even
		// under -fsync never.
		if err := st.Close(); err != nil {
			return fmt.Errorf("closing store: %w", err)
		}
		// Final metrics summary — deliberately after Close, so the numbers
		// cover everything that reached disk, including the final flush.
		m := st.Metrics()
		logger.Info("store closed",
			"wal_append_bytes", m.WALAppendBytes.Value(),
			"wal_append_frames", m.WALAppendFrames.Value(),
			"fsyncs", m.FsyncLatency.Count(),
			"fsync_p99_ms", m.FsyncLatency.Quantile(0.99)*1e3,
			"checkpoints", m.Checkpoints.Value(),
			"folds_completed", m.FoldsCompleted.Value(),
			"folds_scheduled", m.FoldsScheduled.Value())
	}
	logger.Info("shut down")
	return nil
}
