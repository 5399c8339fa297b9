package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ccf/internal/obs"
	"ccf/internal/obs/trace"
	"ccf/internal/shard"
	"ccf/internal/store"
)

// Health is the readiness state behind GET /readyz. The daemon starts
// serving before store recovery runs (so liveness and readiness are
// distinguishable); SetReady flips the probe to 200 and records how many
// filter directories recovery had to skip.
type Health struct {
	ready         atomic.Bool
	unrecoverable atomic.Int64
}

// SetReady marks the process ready to serve, recording the number of
// unrecoverable filter directories found at boot.
func (h *Health) SetReady(unrecoverable int) {
	h.unrecoverable.Store(int64(unrecoverable))
	h.ready.Store(true)
}

// Ready reports readiness and the boot-time unrecoverable-filter count.
func (h *Health) Ready() (bool, int) {
	return h.ready.Load(), int(h.unrecoverable.Load())
}

// serving reports whether filter traffic may be served: once SetReady
// ran, and always for a nil Health.
func (h *Health) serving() bool { return h == nil || h.ready.Load() }

// serverMetrics holds the HTTP layer's instrumentation handles, all
// preallocated at handler construction: per-endpoint request counters by
// status class, latency and batch-size histograms, and row-status
// counters. When HandlerOptions carries no registry the handles still
// exist (built against a throwaway registry), so the handlers never
// nil-check.
type serverMetrics struct {
	reg        *obs.Registry
	rowStatus  [5]*obs.Counter // indexed by shard.RowStatus
	insertRows *obs.Histogram
	queryKeys  *obs.Histogram
	slow       *obs.Counter
	// Admission-control outcomes: sheds by reason (queue_full,
	// queue_timeout, canceled), per-filter rate-limit rejections (429),
	// and requests that outran their deadline (504).
	shed        map[string]*obs.Counter
	rateLimited *obs.Counter
	deadline    *obs.Counter
	// Per-protocol request counters: JSON vs binary wire, by transport.
	// The instrumented HTTP endpoints pick json/binary from the request's
	// Content-Type; the raw-TCP listener counts every frame as
	// binary/tcp.
	protoJSONHTTP *obs.Counter
	protoBinHTTP  *obs.Counter
	protoBinTCP   *obs.Counter
	// Raw-TCP wire request instrumentation (the HTTP endpoints keep
	// their per-endpoint families from wrap).
	wireLatency *obs.Histogram
	wireByClass [4]*obs.Counter // 2xx, 3xx, 4xx, 5xx
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &serverMetrics{reg: reg}
	for st := shard.RowInserted; st <= shard.RowError; st++ {
		m.rowStatus[st] = reg.Counter("ccfd_insert_rows_total",
			"Insert rows by outcome.", obs.Label{Key: "status", Value: st.String()})
	}
	// 1 … 64k rows/keys per batch.
	m.insertRows = reg.Histogram("ccfd_insert_batch_rows",
		"Rows per insert batch.", 1, obs.ExpBounds(1, 4, 9))
	m.queryKeys = reg.Histogram("ccfd_query_batch_keys",
		"Keys per query batch.", 1, obs.ExpBounds(1, 4, 9))
	m.slow = reg.Counter("ccfd_http_slow_requests_total",
		"Requests slower than the -slow-query threshold.")
	m.shed = make(map[string]*obs.Counter, 3)
	for _, reason := range []string{shedQueueFull, shedQueueTimeout, shedCanceled} {
		m.shed[reason] = reg.Counter("ccfd_http_shed_total",
			"Requests shed by admission control, by reason.",
			obs.Label{Key: "reason", Value: reason})
	}
	m.rateLimited = reg.Counter("ccfd_http_rate_limited_total",
		"Requests rejected by a per-filter rate limit (429).")
	m.deadline = reg.Counter("ccfd_http_deadline_exceeded_total",
		"Requests that exceeded the -request-timeout deadline (504).")
	proto := func(protocol, transport string) *obs.Counter {
		return reg.Counter("ccfd_requests_by_protocol_total",
			"Requests by wire protocol and transport.",
			obs.Label{Key: "protocol", Value: protocol},
			obs.Label{Key: "transport", Value: transport})
	}
	m.protoJSONHTTP = proto("json", "http")
	m.protoBinHTTP = proto("binary", "http")
	m.protoBinTCP = proto("binary", "tcp")
	m.wireLatency = reg.Histogram("ccfd_wire_request_seconds",
		"Raw-TCP wire request latency.", 1e-9, obs.ExpBounds(50_000, 4, 11))
	for i, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		m.wireByClass[i] = reg.Counter("ccfd_wire_requests_total",
			"Raw-TCP wire requests by status class.",
			obs.Label{Key: "code", Value: class})
	}
	return m
}

// statusWriter records the status code a handler wrote and carries the
// request's trace context. Riding the trace on the (already allocated)
// per-request recorder instead of context.WithValue keeps the traced
// request path free of context allocations.
type statusWriter struct {
	http.ResponseWriter
	code int
	tr   *trace.Req
}

// reqTrace recovers the trace context wrap attached to the response
// writer. Nil (untraced, or an unwrapped writer) is always safe: every
// trace method no-ops on nil.
func reqTrace(w http.ResponseWriter) *trace.Req {
	if sw, ok := w.(*statusWriter); ok {
		return sw.tr
	}
	return nil
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// wrap instruments one endpoint: request counters by status class, a
// latency histogram (with trace-ID exemplars when tracing is on), a
// per-request ID, the request's trace context, and the slow-query log.
// All metric handles are registered here, once, at handler construction
// — per request the cost is a status recorder, one histogram Observe
// and one counter Inc, plus a pooled trace context when tracing is on.
//
// Until health is ready, requests answer 503 not_ready + Retry-After in
// their own codec without touching the limiter or the handler. With
// admission control on (lim non-nil), the handler body runs only after a
// limiter slot is acquired; requests shed at the limiter answer 503 +
// Retry-After without touching the handler, and the queue wait is its
// own trace phase. With a request timeout, the body runs under a context
// deadline the handlers check at their cancellation checkpoints.
// Refused, shed and timed-out requests still flow through the
// status-class counters and latency histogram like any other outcome.
func (m *serverMetrics) wrap(endpoint string, logger *slog.Logger, slowQuery time.Duration,
	tracer *trace.Tracer, health *Health, lim *limiter, reqTimeout time.Duration, fn http.HandlerFunc) http.HandlerFunc {
	lbl := obs.Label{Key: "endpoint", Value: endpoint}
	latency := m.reg.Histogram("ccfd_http_request_seconds",
		"Request latency by endpoint.", 1e-9, obs.ExpBounds(50_000, 4, 11), lbl)
	if tracer != nil {
		latency.EnableExemplars()
	}
	var byClass [4]*obs.Counter // 2xx, 3xx, 4xx, 5xx
	for i, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		byClass[i] = m.reg.Counter("ccfd_http_requests_total",
			"Requests by endpoint and status class.", lbl,
			obs.Label{Key: "code", Value: class})
	}
	return func(w http.ResponseWriter, r *http.Request) {
		id := obs.NextRequestID()
		start := time.Now()
		if isWire(r) {
			m.protoBinHTTP.Inc()
		} else {
			m.protoJSONHTTP.Inc()
		}
		tr := tracer.StartRequest(r.Header.Get("traceparent"))
		if tr != nil {
			w.Header().Set("Traceparent", tr.Traceparent())
		}
		sw := &statusWriter{ResponseWriter: w, tr: tr}
		if reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if !health.serving() {
			writeFailure(sw, r, errNotReady)
		} else if lim == nil {
			fn(sw, r)
		} else {
			qsp := tr.Start(trace.PhaseQueue)
			reason := lim.acquire(r.Context())
			qsp.End()
			if reason != "" {
				m.shed[reason].Inc()
				writeFailure(sw, r, overloaded(reason))
			} else {
				func() {
					defer lim.release()
					fn(sw, r)
				}()
			}
		}
		dur := time.Since(start)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		tid := tr.TraceID()
		tracer.Finish(tr, code) // tr is pooled; unusable past this point
		latency.ObserveExemplar(dur.Nanoseconds(), tid.Hi, tid.Lo)
		if i := code/100 - 2; i >= 0 && i < len(byClass) {
			byClass[i].Inc()
		}
		if slowQuery > 0 && dur >= slowQuery {
			m.slow.Inc()
			if logger != nil {
				if tid.IsZero() {
					logger.Warn("slow query",
						"request_id", id,
						"endpoint", endpoint,
						"method", r.Method,
						"path", r.URL.Path,
						"status", code,
						"duration_ms", float64(dur.Microseconds())/1000)
				} else {
					// The trace ID keys into GET /debug/traces, where the
					// flight recorder pinned this request's phase breakdown.
					logger.Warn("slow query",
						"request_id", id,
						"trace_id", tid.String(),
						"endpoint", endpoint,
						"method", r.Method,
						"path", r.URL.Path,
						"status", code,
						"duration_ms", float64(dur.Microseconds())/1000)
				}
			}
		} else if logger != nil {
			logger.Debug("request",
				"request_id", id,
				"endpoint", endpoint,
				"status", code,
				"duration_ms", float64(dur.Microseconds())/1000)
		}
	}
}

// registerFilterMetrics names one filter's shard-layer handles and
// occupancy gauges in the exposition registry. The counter handle lives
// inside the ShardedFilter (GrowShard increments it regardless); the
// gauges sample shard.Stats at scrape time, so the write path never
// maintains them. Re-registration with the same name replaces the series
// (PUT semantics), and Delete unregisters by the filter label.
func registerFilterMetrics(reg *obs.Registry, name string, sf *shard.ShardedFilter) {
	lbl := obs.Label{Key: "filter", Value: name}
	reg.RegisterCounter("ccfd_policy_grows_total",
		"Policy-driven proactive level openings.", &sf.Metrics().Grows, lbl)
	reg.RegisterGaugeFunc("ccfd_filter_rows",
		"Accepted rows.", func() float64 { return float64(sf.Stats().Rows) }, lbl)
	reg.RegisterGaugeFunc("ccfd_filter_load_factor",
		"Aggregate load factor.", func() float64 { return sf.Stats().LoadFactor }, lbl)
	reg.RegisterGaugeFunc("ccfd_ladder_levels",
		"Deepest shard ladder (levels).", func() float64 { return float64(sf.Stats().MaxLevels) }, lbl)
	reg.RegisterGaugeFunc("ccfd_ladder_grows",
		"Ladder level openings, reactive and proactive.", func() float64 { return float64(sf.Stats().Grows) }, lbl)
	reg.RegisterGaugeFunc("ccfd_filter_size_bits",
		"Packed sketch size in bits.", func() float64 { return float64(sf.Stats().SizeBits) }, lbl)
	// Per-shard occupancy, sampled from the same Stats the /stats endpoint
	// serves. Shard counts are small (typically ≤ 64), so the series count
	// stays reasonable.
	for i := 0; i < sf.Shards(); i++ {
		i := i
		reg.RegisterGaugeFunc("ccfd_shard_load_factor",
			"Per-shard load factor.", func() float64 {
				st := sf.Stats()
				if i < len(st.ShardLoads) {
					return st.ShardLoads[i]
				}
				return 0
			}, lbl, obs.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
}

// registerStoreMetrics names the store's WAL/checkpoint/fold handles and
// its boot-time recovery stats in the exposition registry.
func registerStoreMetrics(reg *obs.Registry, st *store.Store) {
	m := st.Metrics()
	reg.RegisterCounter("ccfd_wal_append_bytes_total", "WAL bytes appended (frame headers included).", &m.WALAppendBytes)
	reg.RegisterCounter("ccfd_wal_append_frames_total", "WAL records appended.", &m.WALAppendFrames)
	reg.RegisterHistogram("ccfd_wal_fsync_seconds", "WAL fsync latency.", m.FsyncLatency)
	reg.RegisterHistogram("ccfd_wal_group_commit_frames", "Records made durable per fsync.", m.GroupCommitFrames)
	reg.RegisterCounter("ccfd_checkpoints_total", "Completed checkpoints.", &m.Checkpoints)
	reg.RegisterCounter("ccfd_checkpoint_bytes_total", "Snapshot bytes written by checkpoints.", &m.CheckpointBytes)
	reg.RegisterHistogram("ccfd_checkpoint_seconds", "Checkpoint duration.", m.CheckpointLatency)
	reg.RegisterCounter("ccfd_folds_scheduled_total", "Fold requests accepted by the background worker queue.", &m.FoldsScheduled)
	reg.RegisterCounter("ccfd_folds_completed_total", "Folds that swapped in a right-sized filter.", &m.FoldsCompleted)
	reg.RegisterCounter("ccfd_folds_aborted_total", "Folds abandoned by outcome.", &m.FoldsAbortedRaced, obs.Label{Key: "reason", Value: "raced"})
	reg.RegisterCounter("ccfd_folds_aborted_total", "Folds abandoned by outcome.", &m.FoldsAbortedUnavailable, obs.Label{Key: "reason", Value: "unavailable"})
	reg.RegisterCounter("ccfd_folds_aborted_total", "Folds abandoned by outcome.", &m.FoldsAbortedError, obs.Label{Key: "reason", Value: "error"})
	reg.RegisterGauge("ccfd_fold_last_seconds", "Duration of the most recent completed fold.", &m.LastFoldSeconds)
	reg.RegisterGaugeFunc("ccfd_fold_queue_depth", "Fold requests waiting for the background worker.",
		func() float64 { return float64(st.FoldQueueDepth()) })
	reg.RegisterGaugeFunc("ccfd_checkpoint_queue_depth", "Checkpoint requests waiting for the background worker.",
		func() float64 { return float64(st.CheckpointQueueDepth()) })
	// Degraded-mode families. The gauge samples the store at scrape time
	// so the write path maintains nothing for it.
	reg.RegisterGaugeFunc("ccfd_store_degraded", "Filters in degraded read-only mode (writes rejected, reads serving).",
		func() float64 { return float64(st.DegradedCount()) })
	reg.RegisterCounter("ccfd_wal_poisoned_total", "Transitions into degraded read-only mode (WAL write/fsync failures).", &m.WALPoisoned)
	reg.RegisterCounter("ccfd_writes_rejected_total", "Mutations rejected while a filter was degraded.", &m.WritesRejected)
	reg.RegisterCounter("ccfd_rearm_retries_total", "Failed probes to restore write availability.", &m.RearmRetries)
	reg.RegisterCounter("ccfd_rearms_total", "Successful re-arms restoring write availability.", &m.Rearms)
	rs := st.RecoveryStats()
	recovery := func(name, help string, v float64) {
		g := reg.Gauge("ccfd_recovery_"+name, help)
		g.Set(v)
	}
	recovery("filters", "Filters recovered at boot.", float64(rs.Filters))
	recovery("records_replayed", "WAL records replayed at boot.", float64(rs.RecordsReplayed))
	recovery("torn_tails", "WAL files truncated at a torn tail at boot.", float64(rs.TornTails))
	recovery("replay_errors", "Rows whose replay errored at boot.", float64(rs.ReplayErrors))
	recovery("unrecoverable_filters", "Filter directories skipped as unrecoverable at boot.", float64(rs.Unrecoverable))
	recovery("seconds", "Boot recovery duration.", rs.Duration.Seconds())
}
