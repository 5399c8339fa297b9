package server

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"ccf/internal/core"
	"ccf/internal/obs/trace"
	"ccf/internal/wire"
)

// This file is the binary codec shell over the request core (request.go),
// run by both the content-negotiated HTTP path and the raw-TCP listener.

// badFrame maps bytes that do not read or parse as a request frame: 413
// for the size cap (mirroring the JSON path's MaxBytesError behavior),
// 400 bad_frame for everything else.
func badFrame(err error) failure {
	if errors.Is(err, wire.ErrTooLarge) {
		return failure{code: http.StatusRequestEntityTooLarge, kind: wire.KindTooLarge, msg: err.Error()}
	}
	return failure{code: http.StatusBadRequest, kind: wire.KindBadFrame, msg: err.Error()}
}

// isWire reports whether an HTTP request negotiated the binary
// protocol via Content-Type.
func isWire(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == wire.ContentType || strings.HasPrefix(ct, wire.ContentType+";")
}

// process executes one request frame. On success the response frame is
// appended to sc.out; a refusal comes back as the typed failure for the
// transport to render. urlName, when non-empty, is the filter name bound
// by the HTTP route: the frame's name must be empty or equal. want, when
// nonzero, restricts which request opcode this endpoint accepts. ctx
// carries the request deadline; nil keeps the probe path on its
// context-free fast path.
func (s *Server) process(ctx context.Context, op wire.Op, payload []byte,
	sc *reqScratch, tr *trace.Req, urlName string, want wire.Op) failure {
	if want != 0 && op != want {
		return failure{code: http.StatusBadRequest, kind: wire.KindUnsupported,
			msg: "opcode " + op.String() + " not valid on this endpoint"}
	}
	switch op {
	case wire.OpQuery:
		return s.queryFrame(ctx, payload, sc, tr, urlName)
	case wire.OpInsert:
		return s.insertFrame(ctx, payload, sc, tr, urlName)
	default:
		return failure{code: http.StatusBadRequest, kind: wire.KindUnsupported,
			msg: "opcode " + op.String() + " is not a request"}
	}
}

// lookupFrame resolves the entry for a frame: the frame's own name, or
// the URL-bound name when the frame leaves it empty. The []byte map
// lookup compiles without a string allocation.
func (s *Server) lookupFrame(urlName string, name []byte) (*Entry, failure) {
	var e *Entry
	var ok bool
	switch {
	case len(name) == 0 && urlName == "":
		return nil, failure{code: http.StatusBadRequest, kind: wire.KindBadRequest,
			msg: "frame names no filter"}
	case len(name) == 0:
		e, ok = s.reg.Get(urlName)
	case urlName != "" && urlName != string(name):
		return nil, failure{code: http.StatusBadRequest, kind: wire.KindBadRequest,
			msg: "frame filter name does not match the request URL"}
	default:
		e, ok = s.reg.lookupBytes(name)
	}
	if !ok {
		return nil, errNoSuchFilter
	}
	return e, failure{}
}

// framePred converts a decoded frame predicate into sc's recycled
// core.Predicate, its values aliasing the frame scratch.
func (sc *reqScratch) framePred(conds []wire.Cond) core.Predicate {
	if len(conds) == 0 {
		return nil
	}
	sc.pred = sc.pred[:0]
	for _, c := range conds {
		sc.pred = append(sc.pred, core.Cond{Attr: c.Attr, Values: c.Values})
	}
	return sc.pred
}

func (s *Server) queryFrame(ctx context.Context, payload []byte, sc *reqScratch,
	tr *trace.Req, urlName string) failure {
	dsp := tr.Start(trace.PhaseDecode)
	q, err := wire.DecodeQuery(&sc.sc, payload)
	if err != nil {
		dsp.End()
		return badFrame(err)
	}
	dsp.Attr(trace.AttrKeys, int64(len(q.Keys))).Attr(trace.AttrBytes, int64(len(payload))).End()
	e, f := s.lookupFrame(urlName, q.Name)
	if f.failed() {
		return f
	}
	// The frame's via_view flag is decoded and ignored: every query runs
	// the compiled batch probe, and results go out with flags 0.
	results, f := s.query(ctx, e, q.Keys, sc.framePred(q.Pred), sc, tr)
	if f.failed() {
		return f
	}
	esp := tr.Start(trace.PhaseEncode)
	sc.out = wire.AppendResult(sc.out, results, false, false)
	esp.Attr(trace.AttrKeys, int64(len(results))).Attr(trace.AttrBytes, int64(len(sc.out))).End()
	return failure{}
}

func (s *Server) insertFrame(ctx context.Context, payload []byte, sc *reqScratch,
	tr *trace.Req, urlName string) failure {
	dsp := tr.Start(trace.PhaseDecode)
	ins, err := wire.DecodeInsert(&sc.sc, payload)
	if err != nil {
		dsp.End()
		return badFrame(err)
	}
	dsp.Attr(trace.AttrRows, int64(len(ins.Keys))).Attr(trace.AttrBytes, int64(len(payload))).End()
	e, f := s.lookupFrame(urlName, ins.Name)
	if f.failed() {
		return f
	}
	// Rebuild the core's [][]uint64 row shape as sub-slices of the decoded
	// flat attr block — recycled headers, no value copies.
	rows, na := len(ins.Keys), ins.NumAttrs
	sc.rows = sc.rows[:0]
	for i := 0; i < rows; i++ {
		sc.rows = append(sc.rows, ins.Attrs[i*na:(i+1)*na:(i+1)*na])
	}
	statuses, accepted, f := s.insert(ctx, e, ins.Keys, sc.rows, sc, tr)
	if f.failed() {
		return f
	}
	esp := tr.Start(trace.PhaseEncode)
	sc.out = wire.AppendInserted(sc.out, accepted, rows, statuses)
	esp.Attr(trace.AttrRows, int64(rows)).Attr(trace.AttrBytes, int64(len(sc.out))).End()
	return failure{}
}

// wireHTTP serves one content-negotiated binary request on an existing
// HTTP endpoint: the body is one frame, the response body is one frame,
// and the HTTP status mirrors what the JSON path would have answered —
// so wrap()'s admission control, deadlines, tracing, and per-endpoint
// metrics apply unchanged.
func (s *Server) wireHTTP(w http.ResponseWriter, r *http.Request, want wire.Op) {
	sc := getScratch()
	defer putScratch(sc)
	sc.out = sc.out[:0]
	op, payload, err := wire.ReadFrame(r.Body, &sc.buf, s.maxBody)
	var f failure
	if err != nil {
		f = badFrame(err)
	} else {
		f = s.process(s.reqCtx(r), op, payload, sc, reqTrace(w), r.PathValue("name"), want)
	}
	if f.failed() {
		writeFailure(w, r, f)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.Write(sc.out)
}
