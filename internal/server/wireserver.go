package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"ccf/internal/obs/trace"
	"ccf/internal/wire"
)

// Server is the serving layer built once over a registry: the HTTP API
// (Handler) and the raw-TCP binary wire listener (ServeWire) share one
// set of metric handles, one admission limiter, one tracer, and one
// request core (request.go), so a request is governed identically
// whichever door and codec it came through.
type Server struct {
	reg       *Registry
	opts      HandlerOptions
	maxBody   int64
	deadlines bool
	sm        *serverMetrics
	lim       *limiter
	handler   http.Handler

	// Raw-TCP wire listener state: connection tracking for graceful
	// shutdown.
	wireMu     sync.Mutex
	wireLn     net.Listener
	wireConns  map[net.Conn]struct{}
	wireClosed bool
	wireWG     sync.WaitGroup
}

// DefaultWireIdleTimeout disconnects a wire connection with no complete
// request for this long, bounding idle-connection buildup from clients
// that vanished without a FIN.
const DefaultWireIdleTimeout = 5 * time.Minute

// NewServer builds the serving layer. Handler returns the HTTP API;
// ServeWire (optional) serves the binary protocol on a raw listener.
func NewServer(reg *Registry, opts HandlerOptions) *Server {
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	sm := newServerMetrics(opts.Metrics)
	lim := newLimiter(opts.Admission)
	if lim != nil {
		sm.reg.RegisterGaugeFunc("ccfd_admission_inflight",
			"Requests holding an admission slot.", func() float64 { return float64(lim.inflight()) })
		sm.reg.RegisterGaugeFunc("ccfd_admission_queue_depth",
			"Requests waiting for an admission slot.", func() float64 { return float64(lim.queueDepth()) })
	}
	s := &Server{
		reg:     reg,
		opts:    opts,
		maxBody: maxBody,
		// deadlines gates whether handlers thread the request context into
		// the batch paths: with no -request-timeout the probe path keeps
		// its nil-ctx (allocation-free) fast path.
		deadlines: opts.Admission.RequestTimeout > 0,
		sm:        sm,
		lim:       lim,
		wireConns: make(map[net.Conn]struct{}),
	}
	if opts.Tracer != nil {
		sm.wireLatency.EnableExemplars()
	}
	s.handler = s.buildMux()
	return s
}

// Handler returns the HTTP API (both JSON and content-negotiated
// binary).
func (s *Server) Handler() http.Handler { return s.handler }

// ErrWireClosed is returned by ServeWire after ShutdownWire.
var ErrWireClosed = errors.New("server: wire listener closed")

// ServeWire accepts wire-protocol connections on ln until ShutdownWire.
// Each connection is a pipelined stream of request frames answered in
// order; every frame passes through the same admission limiter, request
// deadline, tracer, and metrics as an HTTP request. Like
// http.Server.Serve it always returns a non-nil error — ErrWireClosed
// after a clean shutdown.
func (s *Server) ServeWire(ln net.Listener) error {
	s.wireMu.Lock()
	if s.wireClosed {
		s.wireMu.Unlock()
		return ErrWireClosed
	}
	s.wireLn = ln
	s.wireMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.wireMu.Lock()
			closed := s.wireClosed
			s.wireMu.Unlock()
			if closed {
				return ErrWireClosed
			}
			return err
		}
		s.wireMu.Lock()
		if s.wireClosed {
			s.wireMu.Unlock()
			c.Close()
			return ErrWireClosed
		}
		s.wireConns[c] = struct{}{}
		s.wireWG.Add(1)
		s.wireMu.Unlock()
		go s.serveWireConn(c)
	}
}

// ShutdownWire stops accepting wire connections and waits for in-flight
// ones to drain; when ctx expires first the stragglers are closed hard
// and ctx's error is returned.
func (s *Server) ShutdownWire(ctx context.Context) error {
	s.wireMu.Lock()
	s.wireClosed = true
	ln := s.wireLn
	s.wireMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wireWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.wireMu.Lock()
		for c := range s.wireConns {
			c.Close()
		}
		s.wireMu.Unlock()
		<-done
		return ctx.Err()
	}
}

// serveWireConn runs one connection's request loop. Pipelining: the
// response writer is flushed only when the read buffer holds no further
// complete request, so a client that batches W requests per window gets
// W responses in one flush instead of W round trips.
func (s *Server) serveWireConn(c net.Conn) {
	defer func() {
		s.wireMu.Lock()
		delete(s.wireConns, c)
		s.wireMu.Unlock()
		c.Close()
		s.wireWG.Done()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	ws := new(reqScratch) // per-connection; never contended, never pooled
	for {
		// Arm the idle deadline only when about to block on the socket; a
		// pipelined burst already buffered pays no deadline syscalls.
		if br.Buffered() == 0 {
			c.SetReadDeadline(time.Now().Add(DefaultWireIdleTimeout))
		}
		op, payload, err := wire.ReadFrame(br, &ws.buf, s.maxBody)
		if err != nil {
			if err != io.EOF {
				// A framing error (bad magic, torn frame, oversized payload)
				// leaves no way to find the next frame boundary: answer with
				// a typed error frame, then close — the binary mirror of the
				// 413/400 connection close on the HTTP path.
				ws.out = badFrame(err).appendFrame(ws.out[:0])
				bw.Write(ws.out)
				bw.Flush()
			}
			return
		}
		s.handleWireFrame(op, payload, ws)
		if _, err := bw.Write(ws.out); err != nil {
			return
		}
		if ws.oversized() {
			ws = new(reqScratch) // so the connection does not keep its largest frame's buffers
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// handleWireFrame runs one TCP-path frame through the readiness gate,
// admission control, the binary codec shell, tracing, and the wire
// request metrics, leaving the response frame in ws.out.
func (s *Server) handleWireFrame(op wire.Op, payload []byte, ws *reqScratch) {
	start := time.Now()
	tr := s.opts.Tracer.StartRequest("")
	ws.out = ws.out[:0]
	s.sm.protoBinTCP.Inc()
	var f failure
	shed := ""
	ready := s.opts.Health.serving()
	if ready && s.lim != nil {
		qsp := tr.Start(trace.PhaseQueue)
		shed = s.lim.acquire(nil)
		qsp.End()
	}
	switch {
	case !ready:
		f = errNotReady
	case shed != "":
		s.sm.shed[shed].Inc()
		f = overloaded(shed)
	default:
		var ctx context.Context
		var cancel context.CancelFunc
		if s.deadlines {
			ctx, cancel = context.WithTimeout(context.Background(), s.opts.Admission.RequestTimeout)
		}
		f = s.process(ctx, op, payload, ws, tr, "", 0)
		if cancel != nil {
			cancel()
		}
		if s.lim != nil {
			s.lim.release()
		}
	}
	code := http.StatusOK
	if f.failed() {
		ws.out = f.appendFrame(ws.out)
		code = f.code
	}
	dur := time.Since(start)
	tid := tr.TraceID()
	s.opts.Tracer.Finish(tr, code)
	s.sm.wireLatency.ObserveExemplar(dur.Nanoseconds(), tid.Hi, tid.Lo)
	if i := code/100 - 2; i >= 0 && i < len(s.sm.wireByClass) {
		s.sm.wireByClass[i].Inc()
	}
	if s.opts.SlowQuery > 0 && dur >= s.opts.SlowQuery {
		s.sm.slow.Inc()
		if s.opts.Logger != nil {
			s.opts.Logger.Warn("slow query",
				"endpoint", "wire",
				"op", op.String(),
				"trace_id", tid.String(),
				"status", code,
				"duration_ms", float64(dur.Microseconds())/1000)
		}
	}
}
