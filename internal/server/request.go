package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"unsafe"

	"ccf/internal/core"
	"ccf/internal/obs/trace"
	"ccf/internal/shard"
	"ccf/internal/store"
	"ccf/internal/wire"
)

// This file is the request core: one implementation of each request kind
// under both codecs. The JSON handlers and the binary frame path are
// shells around it (decode, call query or insert, encode), so every
// check, counter and error mapping below happens once per request.

// failure is the core's one typed refusal: the HTTP status (mirrored by
// binary error frames), the wire error kind, the message both codecs
// render, and the Retry-After hint in seconds ("" for none). The zero
// value means success.
type failure struct {
	code       int
	kind       wire.ErrKind
	msg        string
	retryAfter string
}

func (f failure) failed() bool { return f.code != 0 }

// appendFrame appends f as a binary OpError frame.
func (f failure) appendFrame(dst []byte) []byte {
	return wire.AppendError(dst, f.code, f.kind, f.msg)
}

func badRequest(err error) failure {
	return failure{code: http.StatusBadRequest, kind: wire.KindBadRequest, msg: err.Error()}
}

func deadlineFailure(err error) failure {
	return failure{code: http.StatusGatewayTimeout, kind: wire.KindDeadline, msg: err.Error()}
}

// overloaded is admission control's shed on either transport; reason
// names the limit that shed the request.
func overloaded(reason string) failure {
	return failure{code: http.StatusServiceUnavailable, kind: wire.KindOverloaded,
		msg: "server: overloaded (" + reason + ")", retryAfter: "1"}
}

var (
	// errNoSuchFilter is the one not-found mapping, shared by the
	// URL-bound lookup and the frame lookup.
	errNoSuchFilter = failure{code: http.StatusNotFound, kind: wire.KindNotFound,
		msg: "server: no such filter"}
	// errNotReady answers filter traffic that arrives before boot
	// recovery has attached the store (Health not yet SetReady): until
	// then a write could be acked in memory only.
	errNotReady = failure{code: http.StatusServiceUnavailable, kind: wire.KindNotReady,
		msg: "server: not ready (store recovery in progress)", retryAfter: "1"}
)

// reqScratch carries every buffer one insert or query needs, in either
// codec. Pooled (HTTP) or per-connection (TCP), it keeps the steady-state
// decode→core→encode round trip allocation-free: a binary frame lands in
// the 8-aligned buf so keys alias it, the other slices are recycled into
// the shard and store *Into entry points, and binary responses are
// appended to out.
type reqScratch struct {
	buf      wire.Buffer
	sc       wire.Scratch
	out      []byte
	results  []bool
	errs     []error
	rows     [][]uint64
	pred     core.Predicate
	statuses []byte
}

// A scratch is reused only while every buffer it owns holds at most
// maxPooledBytes; past that it is dropped (HTTP pool) or replaced (TCP
// connection), so one huge batch cannot pin multi-MB buffers for the
// steady state.
const maxPooledBytes = 1 << 20

// oversized reports whether any buffer sc owns holds more than
// maxPooledBytes, counted by capacity.
func (sc *reqScratch) oversized() bool {
	return max(sc.buf.Cap(), sc.sc.Cap(), cap(sc.out), cap(sc.results), cap(sc.statuses),
		cap(sc.errs)*int(unsafe.Sizeof(error(nil))),
		cap(sc.rows)*int(unsafe.Sizeof([]uint64(nil))),
		cap(sc.pred)*int(unsafe.Sizeof(core.Cond{}))) > maxPooledBytes
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

func getScratch() *reqScratch { return scratchPool.Get().(*reqScratch) }

func putScratch(sc *reqScratch) {
	if !sc.oversized() {
		scratchPool.Put(sc)
	}
}

// admit spends n work units against e's rate limit.
func (s *Server) admit(e *Entry, n int) failure {
	ok, wait := e.admitUnits(n)
	if ok {
		return failure{}
	}
	s.sm.rateLimited.Inc()
	secs := retryAfterSecs(wait)
	return failure{code: http.StatusTooManyRequests, kind: wire.KindRateLimited,
		msg: "server: filter rate limit exceeded, retry in " + secs + "s", retryAfter: secs}
}

// storeFailure maps a storage-layer batch failure: a degraded
// (read-only) filter is a retryable 503, an expired request deadline is
// 504, anything else a plain 500.
func (s *Server) storeFailure(err error) failure {
	switch {
	case errors.Is(err, store.ErrDegraded):
		return failure{code: http.StatusServiceUnavailable, kind: wire.KindDegraded,
			msg: err.Error(), retryAfter: "1"}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.sm.deadline.Inc()
		return deadlineFailure(err)
	default:
		return failure{code: http.StatusInternalServerError, kind: wire.KindInternal, msg: err.Error()}
	}
}

// query answers keys under pred against e through the shard layer's
// batch probe. Results alias sc.results. ctx carries the request
// deadline; nil keeps the probe on its context-free fast path.
func (s *Server) query(ctx context.Context, e *Entry, keys []uint64, pred core.Predicate,
	sc *reqScratch, tr *trace.Req) ([]bool, failure) {
	if err := pred.Validate(e.Filter().Params().NumAttrs); err != nil {
		return nil, badRequest(err)
	}
	if f := s.admit(e, len(keys)); f.failed() {
		return nil, f
	}
	s.sm.queryKeys.Observe(int64(len(keys)))
	var err error
	sc.results, err = e.Filter().QueryBatchContext(ctx, sc.results[:0], keys, pred, tr)
	if err != nil {
		s.sm.deadline.Inc()
		return nil, deadlineFailure(err)
	}
	return sc.results, failure{}
}

// insert applies rows to e, WAL-first when the entry is durable. It
// returns one shard.RowStatus byte per row aliasing sc.statuses (nil when
// every row landed) and the accepted count; the row errors stay in
// sc.errs for codecs that render their text. A storage failure refuses
// the whole batch: its rows may not survive a crash.
func (s *Server) insert(ctx context.Context, e *Entry, keys []uint64, rows [][]uint64,
	sc *reqScratch, tr *trace.Req) ([]byte, int, failure) {
	if len(keys) != len(rows) {
		return nil, 0, badRequest(shard.ErrBatchShape)
	}
	if f := s.admit(e, len(keys)); f.failed() {
		return nil, 0, f
	}
	// Deadline checkpoint before the WAL append: once a record is in the
	// log the batch runs to completion (aborting between append and apply
	// would desynchronize log and memory), so expired requests are turned
	// away here.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			s.sm.deadline.Inc()
			return nil, 0, deadlineFailure(err)
		}
	}
	s.sm.insertRows.Observe(int64(len(keys)))
	errs, err := e.InsertBatch(sc.errs[:0], keys, rows, tr)
	if errs != nil {
		sc.errs = errs
	}
	if err != nil {
		return nil, 0, s.storeFailure(err)
	}
	accepted := len(keys)
	var statuses []byte
	for i, rerr := range errs {
		if rerr == nil {
			continue
		}
		if statuses == nil {
			if cap(sc.statuses) < len(keys) {
				sc.statuses = make([]byte, len(keys), len(keys)+len(keys)/2+8)
			}
			statuses = sc.statuses[:len(keys)]
			for j := range statuses {
				statuses[j] = byte(shard.RowInserted)
			}
		}
		st := shard.StatusOf(rerr)
		statuses[i] = byte(st)
		s.sm.rowStatus[st].Inc()
		accepted--
	}
	s.sm.rowStatus[shard.RowInserted].Add(uint64(accepted))
	return statuses, accepted, failure{}
}
