package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ccf/internal/server"
	"ccf/internal/shard"
	"ccf/internal/wire"
)

// wconn is one binary-protocol TCP connection driven with a window of
// pipelined requests. Each request is flushed as it is sent, so its
// latency runs from the write to the arrival of its response.
type wconn struct {
	c       *wire.Client
	depth   int
	lat     *latencies
	spans   *spanLog // nil outside the traced run
	req     *uint64  // request-ID counter shared by the run's spans
	pending []inflight
	failed  int64 // requests answered with an error frame
}

type inflight struct {
	sent time.Time
	off  int
	n    int
	span int32
}

func dialWire(addr string, depth int, lat *latencies, spans *spanLog, req *uint64) (*wconn, error) {
	c, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &wconn{c: c, depth: depth, lat: lat, spans: spans, req: req}, nil
}

func (w *wconn) close() { w.c.Close() }

func (w *wconn) push(off, n int, name string) {
	f := inflight{sent: time.Now(), off: off, n: n, span: -1}
	if w.spans != nil {
		*w.req++
		f.span = w.spans.begin(name, *w.req, -1, n)
	}
	w.pending = append(w.pending, f)
}

func (w *wconn) pop() inflight {
	f := w.pending[0]
	w.pending = w.pending[1:]
	if w.lat != nil {
		w.lat.addUnits(time.Since(f.sent), f.n)
	}
	if f.span >= 0 {
		w.spans.end(f.span)
	}
	return f
}

// remote reports whether err is an error frame, which fails the one
// request but leaves the connection usable.
func remote(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re)
}

// queryAll sends keys in batches under one predicate and hands each
// batch's result to onResult with the batch's offset in keys.
func (w *wconn) queryAll(filter string, pred []wire.Cond, keys []uint64, batch int, viaView bool,
	onResult func(off int, r *wire.Result) error) error {
	recv := func() error {
		r, err := w.c.RecvResult()
		f := w.pop()
		if err != nil {
			if remote(err) {
				w.failed++
				return nil
			}
			return err
		}
		if r.N != f.n {
			return violationf("query result for %d keys, sent %d", r.N, f.n)
		}
		return onResult(f.off, &r)
	}
	for off := 0; off < len(keys); off += batch {
		n := min(batch, len(keys)-off)
		if len(w.pending) == w.depth {
			if err := recv(); err != nil {
				return err
			}
		}
		w.push(off, n, "client.query")
		w.c.SendQuery(filter, pred, keys[off:off+n], viaView)
		if err := w.c.Flush(); err != nil {
			return err
		}
	}
	for len(w.pending) > 0 {
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// insertTally counts insert outcomes by row status.
type insertTally struct {
	rows, accepted, discarded, failedRows int64
}

// insertAll sends rows (attrs row-major, numAttrs per row) in batches.
// onBatch, when set, sees each batch's per-row statuses (nil = all in).
func (w *wconn) insertAll(filter string, keys, attrs []uint64, numAttrs, batch int, t *insertTally,
	onBatch func(off, n int, statuses []byte)) error {
	recv := func() error {
		ins, err := w.c.RecvInserted()
		f := w.pop()
		if err != nil {
			if remote(err) {
				w.failed++
				t.failedRows += int64(f.n)
				return nil
			}
			return err
		}
		if ins.Rows != f.n {
			return violationf("insert outcome for %d rows, sent %d", ins.Rows, f.n)
		}
		t.rows += int64(f.n)
		t.accepted += int64(ins.Accepted)
		tallyStatuses(t, ins.Statuses)
		if onBatch != nil {
			onBatch(f.off, f.n, ins.Statuses)
		}
		return nil
	}
	for off := 0; off < len(keys); off += batch {
		n := min(batch, len(keys)-off)
		if len(w.pending) == w.depth {
			if err := recv(); err != nil {
				return err
			}
		}
		w.push(off, n, "client.insert")
		w.c.SendInsert(filter, keys[off:off+n], attrs[off*numAttrs:(off+n)*numAttrs], numAttrs)
		if err := w.c.Flush(); err != nil {
			return err
		}
	}
	for len(w.pending) > 0 {
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// tallyStatuses counts chain_limit rows as discarded (they stay
// answerable, conservatively) and full, bad_attrs and error rows as
// failed.
func tallyStatuses(t *insertTally, statuses []byte) {
	for _, s := range statuses {
		switch shard.RowStatus(s) {
		case shard.RowInserted:
		case shard.RowChainLimit:
			t.discarded++
		default:
			t.failedRows++
		}
	}
}

// rowFailed reports whether a row status means the row is not stored.
func rowFailed(statuses []byte, i int) bool {
	if statuses == nil {
		return false
	}
	s := shard.RowStatus(statuses[i])
	return s != shard.RowInserted && s != shard.RowChainLimit
}

// jsonClient speaks the JSON API over at most two keep-alive HTTP
// connections.
func jsonClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// errRefused is a request the daemon answered with a non-2xx status.
var errRefused = errors.New("request refused")

// postJSON sends one JSON request and decodes the answer into out.
func postJSON(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%w: %s: %s", errRefused, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// encodedInsert is one JSON insert request, encoded ahead of the preload so
// that the load generator's own encoding and garbage collection stay out
// of the daemon's insert figures.
type encodedInsert struct {
	body []byte
	rows int
}

// jsonInsertBatches encodes rows (attrs row-major, numAttrs per row) as
// insert requests of batch rows each.
func jsonInsertBatches(keys, attrs []uint64, numAttrs, batch int) ([]encodedInsert, error) {
	var out []encodedInsert
	for off := 0; off < len(keys); off += batch {
		n := min(batch, len(keys)-off)
		req := server.InsertRequest{Keys: keys[off : off+n], Attrs: make([][]uint64, n)}
		for i := range req.Attrs {
			req.Attrs[i] = attrs[(off+i)*numAttrs : (off+i+1)*numAttrs]
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out = append(out, encodedInsert{body: body, rows: n})
	}
	return out, nil
}

// jsonInsertAll sends the batches over HTTP JSON, closed loop, on one
// connection of c.
func jsonInsertAll(c *http.Client, url string, batches []encodedInsert, lat *latencies, t *insertTally) error {
	for _, b := range batches {
		n := b.rows
		start := time.Now()
		var resp server.InsertResponse
		err := postJSON(c, url, b.body, &resp)
		lat.add(time.Since(start))
		if err != nil {
			if errors.Is(err, errRefused) {
				t.failedRows += int64(n)
				continue
			}
			return err
		}
		t.rows += int64(n)
		t.accepted += int64(resp.Accepted)
		for _, s := range resp.Statuses {
			switch s {
			case "inserted":
			case "chain_limit":
				t.discarded++
			default:
				t.failedRows++
			}
		}
	}
	return nil
}
