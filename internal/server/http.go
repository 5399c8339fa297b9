package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"ccf/internal/core"
	"ccf/internal/obs"
	"ccf/internal/obs/trace"
	"ccf/internal/shard"
	"ccf/internal/store"
	"ccf/internal/wire"
)

// DefaultMaxBodyBytes bounds request bodies (batches and snapshots) when
// HandlerOptions does not say otherwise. Oversized bodies get 413.
const DefaultMaxBodyBytes = 64 << 20

// HandlerOptions tunes NewHandlerOpts.
type HandlerOptions struct {
	// MaxBodyBytes caps request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Metrics, when set, is the exposition registry: the handler
	// registers its per-endpoint series there and serves GET /metrics
	// from it. Nil disables exposition but keeps the (cheap) counting.
	Metrics *obs.Registry
	// Logger receives per-request debug lines and slow-query warnings.
	// Nil disables request logging.
	Logger *slog.Logger
	// SlowQuery is the latency at or above which a request is logged at
	// Warn and counted in ccfd_http_slow_requests_total. 0 disables.
	SlowQuery time.Duration
	// Health, when set, backs GET /readyz: 503 until SetReady. Until then
	// every instrumented route and every raw-TCP frame answers 503
	// not_ready with Retry-After, so no write is acked before the store is
	// attached. Nil means always ready (no recovery phase to wait out).
	Health *Health
	// Tracer, when set, gives every request a trace context (honoring an
	// incoming W3C traceparent header and emitting one on the response),
	// records phase spans through all layers, attaches trace-ID exemplars
	// to the latency histograms, and serves GET /debug/traces from its
	// flight recorder. Nil disables tracing entirely.
	Tracer *trace.Tracer
	// Admission is the overload-protection configuration: concurrency
	// limiter, bounded queue, and per-request deadline. Zero value =
	// admission control off.
	Admission AdmissionOptions
}

// CreateRequest is the body of PUT /filters/{name}. Shards takes 1 to
// 1024 (0 means 1). Batch inserts and queries run on the request's
// goroutine. AutoGrow, when present, enables elastic capacity for the
// filter (zero-valued fields take the policy defaults); absent, the
// server's default policy (the -auto-grow flag) applies, if any.
type CreateRequest struct {
	Variant string `json:"variant"` // plain | chained | bloom | mixed
	Shards  int    `json:"shards"`
	// Deprecated: Workers (JSON "workers") is accepted and ignored.
	Workers  int             `json:"workers"`
	Capacity int             `json:"capacity"`
	NumAttrs int             `json:"num_attrs"`
	KeyBits  int             `json:"key_bits"`
	AttrBits int             `json:"attr_bits"`
	Seed     uint64          `json:"seed"`
	AutoGrow *AutoGrowPolicy `json:"auto_grow,omitempty"`
	// RateLimit, when present, throttles the filter's traffic with a
	// token bucket (rows/keys per second). Absent leaves the filter
	// unthrottled; PUT-replacing a filter without it clears any limit.
	RateLimit *RateLimitPolicy `json:"rate_limit,omitempty"`
}

// InsertRequest is the body of POST /filters/{name}/insert.
type InsertRequest struct {
	Keys  []uint64   `json:"keys"`
	Attrs [][]uint64 `json:"attrs"`
}

// InsertResponse reports the batch outcome. Accepted counts rows that
// landed; Statuses (present whenever any row did not) carries one
// shard.RowStatus name per row — "inserted", "full", "chain_limit",
// "bad_attrs", "error" — so callers know exactly which rows are in the
// filter; Errors keeps the failing rows' error strings by index.
type InsertResponse struct {
	Accepted int            `json:"accepted"`
	Statuses []string       `json:"statuses,omitempty"`
	Errors   map[int]string `json:"errors,omitempty"`
}

// CondJSON is one predicate conjunct.
type CondJSON struct {
	Attr   int      `json:"attr"`
	Values []uint64 `json:"values"`
}

// QueryRequest is the body of POST /filters/{name}/query: one result
// per key under the predicate, answered through the filter's compiled
// batch probe.
type QueryRequest struct {
	Keys      []uint64   `json:"keys"`
	Predicate []CondJSON `json:"predicate,omitempty"`
	// Deprecated: via_view is accepted and ignored; a query answers the
	// same with or without it.
	ViaView bool `json:"via_view,omitempty"`
}

// QueryResponse carries one result per key.
type QueryResponse struct {
	Results []bool `json:"results"`
}

// FilterStats is one filter's entry in GET /stats: the sharded
// occupancy (including per-shard ladder detail — levels, grows,
// per-level occupancy and free-slot estimates), the elastic-capacity
// policy and the fold counter.
type FilterStats struct {
	shard.Stats
	Folds     uint64           `json:"folds"`
	AutoGrow  *AutoGrowPolicy  `json:"auto_grow,omitempty"`
	RateLimit *RateLimitPolicy `json:"rate_limit,omitempty"`
	// Deprecated: ccfd keeps no predicate-view cache, so every count
	// reads 0; the block stays so existing /stats readers still decode.
	ViewCache struct {
		Capacity      int    `json:"capacity"`
		Entries       int    `json:"entries"`
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
		Evictions     uint64 `json:"evictions"`
	} `json:"view_cache"`
}

// filterStats assembles one entry's stats response.
func filterStats(e *Entry) FilterStats {
	return FilterStats{
		Stats:     e.Filter().Stats(),
		Folds:     e.Folds(),
		AutoGrow:  e.Policy(),
		RateLimit: e.RateLimit(),
	}
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Filters map[string]FilterStats `json:"filters"`
}

// ParseVariant maps a wire name to a core variant; empty means Chained.
func ParseVariant(s string) (core.Variant, error) {
	switch strings.ToLower(s) {
	case "", "chained":
		return core.VariantChained, nil
	case "plain":
		return core.VariantPlain, nil
	case "bloom":
		return core.VariantBloom, nil
	case "mixed":
		return core.VariantMixed, nil
	default:
		return 0, fmt.Errorf("server: unknown variant %q", s)
	}
}

func toPredicate(conds []CondJSON) core.Predicate {
	if len(conds) == 0 {
		return nil
	}
	pred := make(core.Predicate, len(conds))
	for i, c := range conds {
		pred[i] = core.Cond{Attr: c.Attr, Values: c.Values}
	}
	return pred
}

// NewHandler returns the HTTP API over a registry:
//
//	PUT    /filters/{name}           create or replace a filter
//	DELETE /filters/{name}           drop a filter
//	POST   /filters/{name}/insert    batched inserts
//	POST   /filters/{name}/query     batched queries
//	GET    /filters/{name}/stats     one filter's stats (read under each
//	                                 shard's read lock in turn)
//	GET    /filters/{name}/snapshot  whole-set binary snapshot
//	POST   /filters/{name}/restore   create or replace from a snapshot
//	GET    /stats                    registry-wide stats
//	GET    /healthz                  liveness probe
//	GET    /readyz                   readiness probe (503 until recovery)
//	GET    /metrics                  Prometheus text exposition
func NewHandler(reg *Registry) http.Handler {
	return NewHandlerOpts(reg, HandlerOptions{})
}

// NewHandlerOpts is NewHandler with explicit limits and observability
// hooks — a compatibility wrapper over NewServer for callers that only
// need the HTTP side. Every endpoint is wrapped with per-endpoint
// request counters and a latency histogram; the handles are registered
// once at construction, so the per-request cost is atomic adds only.
func NewHandlerOpts(reg *Registry, opts HandlerOptions) http.Handler {
	return NewServer(reg, opts).Handler()
}

// buildMux assembles the HTTP API over the server's shared state. The
// insert and query endpoints are dual-protocol: a request whose
// Content-Type is the wire protocol's is served from the binary frame
// core instead of the JSON decoder, under the same wrap()
// instrumentation, admission control, and deadlines.
func (s *Server) buildMux() http.Handler {
	reg, opts := s.reg, s.opts
	maxBody, sm, lim := s.maxBody, s.sm, s.lim
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, fn http.HandlerFunc) {
		mux.HandleFunc(pattern, sm.wrap(endpoint, opts.Logger, opts.SlowQuery, opts.Tracer,
			opts.Health, lim, opts.Admission.RequestTimeout, fn))
	}
	handle("PUT /filters/{name}", "create", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if !decodeJSON(w, r, &req, maxBody) {
			return
		}
		variant, err := ParseVariant(req.Variant)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		e, err := reg.Create(r.PathValue("name"), shard.Options{
			Shards: req.Shards,
			Params: core.Params{
				Variant:  variant,
				Capacity: req.Capacity,
				NumAttrs: req.NumAttrs,
				KeyBits:  req.KeyBits,
				AttrBits: req.AttrBits,
				Seed:     req.Seed,
			},
		}, req.AutoGrow)
		if err != nil {
			httpError(w, registryErrorCode(err), err)
			return
		}
		e.SetRateLimit(req.RateLimit)
		w.WriteHeader(http.StatusCreated)
	})

	handle("DELETE /filters/{name}", "delete", func(w http.ResponseWriter, r *http.Request) {
		ok, err := reg.Delete(r.PathValue("name"))
		if !ok {
			writeFailure(w, r, errNoSuchFilter)
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	// The insert and query handlers are the JSON codec shell over the
	// request core (request.go): decode, call the core, encode. Results
	// and row errors live in a pooled request scratch, returned after the
	// response is encoded.
	handle("POST /filters/{name}/insert", "insert", func(w http.ResponseWriter, r *http.Request) {
		if isWire(r) {
			s.wireHTTP(w, r, wire.OpInsert)
			return
		}
		tr := reqTrace(w)
		e, ok := s.lookup(w, r)
		if !ok {
			return
		}
		var req InsertRequest
		dsp := tr.Start(trace.PhaseDecode)
		ok = decodeJSON(w, r, &req, maxBody)
		dsp.Attr(trace.AttrRows, int64(len(req.Keys))).End()
		if !ok {
			return
		}
		sc := getScratch()
		defer putScratch(sc)
		statuses, accepted, f := s.insert(s.reqCtx(r), e, req.Keys, req.Attrs, sc, tr)
		if f.failed() {
			writeFailure(w, r, f)
			return
		}
		resp := InsertResponse{Accepted: accepted}
		if statuses != nil {
			resp.Statuses = make([]string, len(statuses))
			resp.Errors = make(map[int]string)
			for i, st := range statuses {
				resp.Statuses[i] = shard.RowStatus(st).String()
				if shard.RowStatus(st) != shard.RowInserted {
					resp.Errors[i] = sc.errs[i].Error()
				}
			}
		}
		esp := tr.Start(trace.PhaseEncode)
		writeJSON(w, resp)
		esp.End()
	})

	handle("POST /filters/{name}/query", "query", func(w http.ResponseWriter, r *http.Request) {
		if isWire(r) {
			s.wireHTTP(w, r, wire.OpQuery)
			return
		}
		tr := reqTrace(w)
		e, ok := s.lookup(w, r)
		if !ok {
			return
		}
		var req QueryRequest
		dsp := tr.Start(trace.PhaseDecode)
		ok = decodeJSON(w, r, &req, maxBody)
		dsp.Attr(trace.AttrKeys, int64(len(req.Keys))).End()
		if !ok {
			return
		}
		sc := getScratch()
		defer putScratch(sc)
		results, f := s.query(s.reqCtx(r), e, req.Keys, toPredicate(req.Predicate), sc, tr)
		if f.failed() {
			writeFailure(w, r, f)
			return
		}
		resp := QueryResponse{Results: results}
		if resp.Results == nil {
			resp.Results = []bool{}
		}
		esp := tr.Start(trace.PhaseEncode)
		writeJSON(w, resp)
		esp.End()
	})

	handle("GET /filters/{name}/stats", "filter_stats", func(w http.ResponseWriter, r *http.Request) {
		e, ok := s.lookup(w, r)
		if !ok {
			return
		}
		// Stats reads each shard under its read lock like a query
		// (shard.Stats), so a monitoring scrape holds up only the
		// writers of the shard it is reading.
		writeJSON(w, filterStats(e))
	})

	handle("GET /filters/{name}/snapshot", "snapshot", func(w http.ResponseWriter, r *http.Request) {
		e, ok := s.lookup(w, r)
		if !ok {
			return
		}
		data, err := e.Filter().Snapshot()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})

	handle("POST /filters/{name}/restore", "restore", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			httpError(w, bodyErrorCode(err), err)
			return
		}
		if _, err := reg.Restore(r.PathValue("name"), data); err != nil {
			httpError(w, registryErrorCode(err), err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})

	handle("GET /stats", "stats", func(w http.ResponseWriter, r *http.Request) {
		resp := StatsResponse{Filters: make(map[string]FilterStats)}
		for _, name := range reg.Names() {
			e, ok := reg.Get(name)
			if !ok {
				continue
			}
			resp.Filters[name] = filterStats(e)
		}
		writeJSON(w, resp)
	})

	// Probes and exposition stay unwrapped: scrapes and kubelet checks
	// should not pollute the request metrics or the slow-query log.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, unrecoverable := true, 0
		if opts.Health != nil {
			ready, unrecoverable = opts.Health.Ready()
		}
		// Degraded filters still serve reads, so they do not flip
		// readiness; the list (name, reason, since) tells probes and
		// operators exactly which filters are rejecting writes.
		degraded := reg.DegradedFilters()
		if degraded == nil {
			degraded = []store.DegradedFilter{}
		}
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]any{
			"ready":                 ready,
			"unrecoverable_filters": unrecoverable,
			"degraded_filters":      degraded,
		})
	})

	if opts.Metrics != nil {
		mux.Handle("GET /metrics", opts.Metrics.Handler())
	}
	if opts.Tracer != nil {
		mux.Handle("GET /debug/traces", opts.Tracer.Handler())
	}

	return mux
}

// lookup resolves the URL-bound filter, answering the shared not-found
// failure when it is missing.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	e, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeFailure(w, r, errNoSuchFilter)
	}
	return e, ok
}

// reqCtx threads the request deadline into the request core; nil (no
// -request-timeout) keeps the probe path on its allocation-free fast
// path.
func (s *Server) reqCtx(r *http.Request) context.Context {
	if s.deadlines {
		return r.Context()
	}
	return nil
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any, maxBody int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(dst); err != nil {
		httpError(w, bodyErrorCode(err), fmt.Errorf("server: bad request body: %w", err))
		return false
	}
	return true
}

// bodyErrorCode maps a request-body read failure to a status: 413 when
// the MaxBytesReader limit tripped, 400 otherwise.
func bodyErrorCode(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// registryErrorCode maps a registry failure to a status: 500 for
// durability-layer failures, 400 for bad input.
func registryErrorCode(err error) int {
	var sf *StoreFailure
	if errors.As(err, &sf) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeFailure renders a request-core failure in r's codec: a binary
// OpError frame when the request negotiated the wire protocol, the JSON
// error body otherwise, with the failure's Retry-After hint as a header
// either way.
func writeFailure(w http.ResponseWriter, r *http.Request, f failure) {
	if f.retryAfter != "" {
		w.Header().Set("Retry-After", f.retryAfter)
	}
	if isWire(r) {
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(f.code)
		w.Write(f.appendFrame(nil))
		return
	}
	httpError(w, f.code, errors.New(f.msg))
}
