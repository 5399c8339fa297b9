package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"ccf/internal/core"
	"ccf/internal/obs"
	"ccf/internal/obs/trace"
	"ccf/internal/server"
	"ccf/internal/shard"
	"ccf/internal/store"
	"ccf/internal/wire"
)

// replayMin is how long each in-process layer replay runs at least; the
// recorded requests are replayed whole as often as that takes.
const replayMin = 300 * time.Millisecond

// recQuery is one recorded query request.
type recQuery struct {
	filter  string
	pred    []wire.Cond
	keys    []uint64
	viaView bool
}

// recInsert is one recorded insert request (attrs row-major).
type recInsert struct {
	filter   string
	keys     []uint64
	attrs    []uint64
	numAttrs int
}

// filterDef is one daemon filter as the replay rebuilds it: its create
// request, its rows, and the daemon's snapshot of it at the end of the
// measured phase (the shard and server layers restore that, so they
// probe exactly the daemon's state, grown ladder levels included).
type filterDef struct {
	name     string
	create   server.CreateRequest
	keys     []uint64
	attrs    []uint64
	snapshot []byte
}

// layerInput is what the in-process replay needs from a workload.
type layerInput struct {
	filters  []filterDef
	queries  []recQuery
	inserts  []recInsert
	json     bool // the workload speaks JSON over HTTP, not binary frames
	autoGrow bool // the daemon runs with -auto-grow
}

// layerCosts are the replay's figures: ns per key on the query path and
// ns per row on the insert path, each measured through one layer's
// public call.
type layerCosts struct {
	core, ladder, shard       float64
	serverBinary, serverJSON  float64
	wireClient, jsonClient    float64 // client-side encode+decode per key
	coreIns, shardIns         float64
	storeIns, serverIns       float64
	allocsPerReq              float64
	trueFrac, loadFactor      float64
	levels, levelsWalked      float64
	wireEnc, wireDec          float64
	wireBytes, jsonBytes      float64
	walBytesPerRow            float64
	keys, rows, queryRequests int64
}

func coreParams(c server.CreateRequest) (core.Params, error) {
	v, err := server.ParseVariant(c.Variant)
	if err != nil {
		return core.Params{}, err
	}
	return core.Params{Variant: v, Capacity: c.Capacity, NumAttrs: c.NumAttrs,
		KeyBits: c.KeyBits, AttrBits: c.AttrBits, Seed: c.Seed}, nil
}

func toCore(p []wire.Cond) core.Predicate {
	out := make(core.Predicate, len(p))
	for i, c := range p {
		out[i] = core.Cond{Attr: c.Attr, Values: c.Values}
	}
	return out
}

func rowsOf(attrs []uint64, numAttrs, n int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = attrs[i*numAttrs : (i+1)*numAttrs]
	}
	return out
}

// replay times fn over the recorded set until replayMin has passed and
// returns ns per unit; each pass is one span.
func replay(spans *spanLog, name string, units int64, fn func() error) (float64, error) {
	if err := fn(); err != nil { // warm-up, untimed
		return 0, err
	}
	var total time.Duration
	var passes int64
	for total < replayMin || passes == 0 {
		i := spans.begin(name, uint64(passes), -1, int(units))
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		total += time.Since(start)
		spans.end(i)
		passes++
	}
	return ratio(float64(total), float64(units*passes)), nil
}

// replayLayers rebuilds the workload's filters in-process and replays the
// recorded requests into each layer's public functions, bottom up.
func replayLayers(e *env, in *layerInput, spans *spanLog) (*layerCosts, error) {
	lc := &layerCosts{}
	for _, q := range in.queries {
		lc.keys += int64(len(q.keys))
	}
	lc.queryRequests = int64(len(in.queries))
	for _, r := range in.inserts {
		lc.rows += int64(len(r.keys))
	}
	if lc.keys == 0 || lc.rows == 0 {
		return nil, errors.New("nothing recorded to replay")
	}
	policy := server.DefaultAutoGrowPolicy()
	maxLevels := 1
	if in.autoGrow {
		maxLevels = policy.MaxLevels
	}

	// core and core.ladder: one unsharded filter and one ladder per
	// daemon filter, loaded with every row.
	cores := map[string]*core.Filter{}
	ladders := map[string]*core.Ladder{}
	var occupied, capacity float64
	for _, f := range in.filters {
		p, err := coreParams(f.create)
		if err != nil {
			return nil, err
		}
		cp := p
		if in.autoGrow {
			cp.Capacity = max(p.Capacity, len(f.keys)) // right-sized, as after a fold
		}
		cf, err := core.New(cp)
		if err != nil {
			return nil, err
		}
		lopts := core.LadderOptions{MaxLevels: maxLevels, GrowthFactor: policy.GrowthFactor}
		l, err := core.NewLadder(p, lopts)
		if err != nil {
			return nil, err
		}
		na := f.create.NumAttrs
		for i, k := range f.keys {
			a := f.attrs[i*na : (i+1)*na]
			if err := cf.Insert(k, a); err != nil && !errors.Is(err, core.ErrChainLimit) {
				return nil, fmt.Errorf("core %s row %d: %w", f.name, i, err)
			}
			if err := l.Insert(k, a); err != nil && !errors.Is(err, core.ErrChainLimit) {
				return nil, fmt.Errorf("ladder %s row %d: %w", f.name, i, err)
			}
			// Fold as the daemon's policy does: once the ladder is
			// policy.FoldAtLevels tall, rebuild it right-sized.
			if in.autoGrow && l.Levels() >= policy.FoldAtLevels {
				fp := p
				fp.Capacity = i + 1
				if l, err = core.NewLadder(fp, lopts); err != nil {
					return nil, err
				}
				for j := 0; j <= i; j++ {
					if err := l.Insert(f.keys[j], f.attrs[j*na:(j+1)*na]); err != nil && !errors.Is(err, core.ErrChainLimit) {
						return nil, fmt.Errorf("ladder %s refold row %d: %w", f.name, j, err)
					}
				}
			}
		}
		cores[f.name], ladders[f.name] = cf, l
		st := cf.Stats()
		occupied += float64(st.Occupied)
		capacity += float64(st.Capacity)
		lc.levels = max(lc.levels, float64(l.Levels()))
	}
	lc.loadFactor = ratio(occupied, capacity)

	// shard and server: a registry like the daemon's, restored from the
	// daemon's snapshots.
	reg := server.NewRegistry(server.DefaultViewCacheCap)
	if in.autoGrow {
		reg.SetDefaultPolicy(&policy)
	}
	reg.AttachObs(obs.NewRegistry())
	shards := map[string]*shard.ShardedFilter{}
	for _, f := range in.filters {
		ent, err := reg.Create(f.name, shardOptions(f.create), nil)
		if err != nil {
			return nil, err
		}
		if err := ent.Filter().Restore(f.snapshot); err != nil {
			return nil, fmt.Errorf("restoring %s: %w", f.name, err)
		}
		shards[f.name] = ent.Filter()
	}
	api := server.NewServer(reg, server.HandlerOptions{
		Tracer: trace.New(trace.Options{SampleEvery: 1, Recorder: trace.NewRecorder(32, 32)}),
	})
	h := api.Handler()

	preds := make([]core.Predicate, len(in.queries))
	for i, q := range in.queries {
		preds[i] = toCore(q.pred)
	}
	var dst []bool
	var trues int64
	var err error
	lc.core, err = replay(spans, "core.Filter.QueryBatchInto", lc.keys, func() error {
		trues = 0
		for i, q := range in.queries {
			dst = cores[q.filter].QueryBatchInto(dst, q.keys, preds[i])
			for _, b := range dst {
				if b {
					trues++
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	lc.trueFrac = ratio(float64(trues), float64(lc.keys))
	if lc.ladder, err = replay(spans, "core.Ladder.QueryBatchInto", lc.keys, func() error {
		for i, q := range in.queries {
			dst = ladders[q.filter].QueryBatchInto(dst, q.keys, preds[i])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var walked float64
	for i, q := range in.queries {
		dst = append(dst[:0], make([]bool, len(q.keys))...)
		walked += float64(ladders[q.filter].QueryBatchIdxWalk(dst, q.keys, nil, preds[i]))
	}
	lc.levelsWalked = walked / float64(len(in.queries))
	if lc.shard, err = replay(spans, "shard.ShardedFilter.QueryBatchInto", lc.keys, func() error {
		for i, q := range in.queries {
			dst = shards[q.filter].QueryBatchInto(dst, q.keys, preds[i])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// server: Handler().ServeHTTP on the recorded bodies, no socket.
	binBodies := make([][]byte, len(in.queries))
	jsonBodies := make([][]byte, len(in.queries))
	for i, q := range in.queries {
		binBodies[i] = wire.AppendQuery(nil, q.filter, q.pred, q.keys, q.viaView)
		if jsonBodies[i], err = json.Marshal(jsonQuery(q)); err != nil {
			return nil, err
		}
	}
	serve := func(bodies [][]byte, ctype string, check func(i int, body []byte) error) func() error {
		reqs := make([]*http.Request, len(in.queries))
		for i, q := range in.queries {
			reqs[i], _ = http.NewRequest("POST", "/filters/"+q.filter+"/query", nil)
			reqs[i].Header.Set("Content-Type", ctype)
		}
		w := &sinkWriter{h: http.Header{}}
		rd := &bytesBody{}
		first := true
		return func() error {
			for i, r := range reqs {
				rd.Reset(bodies[i])
				r.Body, r.ContentLength = rd, int64(len(bodies[i]))
				w.reset()
				h.ServeHTTP(w, r)
				if w.code != http.StatusOK {
					return fmt.Errorf("in-process query answered %d: %s", w.code, w.body)
				}
				if first {
					if err := check(i, w.body); err != nil {
						return err
					}
				}
			}
			first = false
			return nil
		}
	}
	checkBin := func(i int, body []byte) error {
		r, err := decodeResultFrame(body)
		if err != nil {
			return err
		}
		if r.N != len(in.queries[i].keys) {
			return violationf("in-process binary result for %d keys, sent %d", r.N, len(in.queries[i].keys))
		}
		return nil
	}
	checkJSON := func(i int, body []byte) error {
		var resp server.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(in.queries[i].keys) {
			return violationf("in-process JSON result for %d keys, sent %d", len(resp.Results), len(in.queries[i].keys))
		}
		return nil
	}
	binRun := serve(binBodies, wire.ContentType, checkBin)
	jsonRun := serve(jsonBodies, "application/json", checkJSON)
	if lc.serverBinary, err = replay(spans, "server.ServeHTTP.binary", lc.keys, binRun); err != nil {
		return nil, err
	}
	if lc.serverJSON, err = replay(spans, "server.ServeHTTP.json", lc.keys, jsonRun); err != nil {
		return nil, err
	}
	own := binRun
	if in.json {
		own = jsonRun
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := own(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	lc.allocsPerReq = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(in.queries)))

	if err := codecCosts(lc, in, cores, preds, spans); err != nil {
		return nil, err
	}
	if err := insertCosts(e, lc, in, h, spans); err != nil {
		return nil, err
	}
	return lc, nil
}

func shardOptions(c server.CreateRequest) shard.Options {
	p, _ := coreParams(c)
	return shard.Options{Shards: c.Shards, Workers: c.Workers, Params: p}
}

func jsonQuery(q recQuery) server.QueryRequest {
	r := server.QueryRequest{Keys: q.keys, ViaView: q.viaView}
	for _, c := range q.pred {
		r.Predicate = append(r.Predicate, server.CondJSON{Attr: c.Attr, Values: c.Values})
	}
	return r
}

func decodeResultFrame(frame []byte) (wire.Result, error) {
	var buf wire.Buffer
	op, payload, err := wire.ReadFrame(bytes.NewReader(frame), &buf, 0)
	if err != nil {
		return wire.Result{}, err
	}
	if op != wire.OpResult {
		return wire.Result{}, fmt.Errorf("in-process binary query answered opcode %s", op)
	}
	return wire.DecodeResult(payload)
}

// codecCosts times the client's side of each codec on the recorded
// requests: binary frames (AppendQuery/AppendInsert out, DecodeResult/
// DecodeInserted back) and JSON (marshal QueryRequest, unmarshal
// QueryResponse).
func codecCosts(lc *layerCosts, in *layerInput, cores map[string]*core.Filter, preds []core.Predicate, spans *spanLog) error {
	resFrames := make([][]byte, len(in.queries))
	resJSON := make([][]byte, len(in.queries))
	for i, q := range in.queries {
		ans := cores[q.filter].QueryBatchInto(nil, q.keys, preds[i])
		resFrames[i] = wire.AppendResult(nil, ans, q.viaView, false)[wire.HeaderSize:]
		var err error
		if resJSON[i], err = json.Marshal(server.QueryResponse{Results: ans}); err != nil {
			return err
		}
		lc.wireBytes += float64(len(wire.AppendQuery(nil, q.filter, q.pred, q.keys, q.viaView)) + len(resFrames[i]) + wire.HeaderSize)
	}
	lc.wireBytes /= float64(lc.keys)
	insFrames := make([][]byte, len(in.inserts))
	for i, r := range in.inserts {
		insFrames[i] = wire.AppendInserted(nil, len(r.keys), len(r.keys), nil)[wire.HeaderSize:]
	}
	var out []byte
	var res []bool
	units := lc.keys + lc.rows
	var err error
	if lc.wireEnc, err = replay(spans, "wire.Append", units, func() error {
		for _, q := range in.queries {
			out = wire.AppendQuery(out[:0], q.filter, q.pred, q.keys, q.viaView)
		}
		for _, r := range in.inserts {
			out = wire.AppendInsert(out[:0], r.filter, r.keys, r.attrs, r.numAttrs)
		}
		return nil
	}); err != nil {
		return err
	}
	if lc.wireDec, err = replay(spans, "wire.Decode", units, func() error {
		for _, p := range resFrames {
			r, err := wire.DecodeResult(p)
			if err != nil {
				return err
			}
			res = r.Expand(res)
		}
		for _, p := range insFrames {
			if _, err := wire.DecodeInserted(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Query path only, for the ledger: encode and decode per key.
	var qEnc, qDec time.Duration
	for pass := 0; qEnc+qDec < replayMin; pass++ {
		start := time.Now()
		for _, q := range in.queries {
			out = wire.AppendQuery(out[:0], q.filter, q.pred, q.keys, q.viaView)
		}
		mid := time.Now()
		for _, p := range resFrames {
			r, _ := wire.DecodeResult(p)
			res = r.Expand(res)
		}
		qEnc += mid.Sub(start)
		qDec += time.Since(mid)
		lc.wireClient = float64(qEnc+qDec) / float64(lc.keys*int64(pass+1))
	}

	var jsonBytes int
	if lc.jsonClient, err = replay(spans, "server.json.client", lc.keys, func() error {
		jsonBytes = 0
		for i, q := range in.queries {
			body, err := json.Marshal(jsonQuery(q))
			if err != nil {
				return err
			}
			var resp server.QueryResponse
			if err := json.Unmarshal(resJSON[i], &resp); err != nil {
				return err
			}
			jsonBytes += len(body) + len(resJSON[i])
		}
		return nil
	}); err != nil {
		return err
	}
	lc.jsonBytes = float64(jsonBytes) / float64(lc.keys)
	return nil
}

// insertCosts replays the recorded insert batches into fresh filters at
// each layer: core.Filter.Insert, ShardedFilter.InsertBatchInto,
// store.Filter.InsertBatchInto (interval fsync, as the daemon) and the
// server's insert handler.
func insertCosts(e *env, lc *layerCosts, in *layerInput, h http.Handler, spans *spanLog) error {
	defs := map[string]server.CreateRequest{}
	for _, f := range in.filters {
		defs[f.name] = f.create
	}
	fresh := func() (map[string]*shard.ShardedFilter, error) {
		out := map[string]*shard.ShardedFilter{}
		for name, c := range defs {
			sf, err := shard.New(shardOptions(c))
			if err != nil {
				return nil, err
			}
			out[name] = sf
		}
		return out, nil
	}
	cores := map[string]*core.Filter{}
	for name, c := range defs {
		p, err := coreParams(c)
		if err != nil {
			return err
		}
		if cores[name], err = core.New(p); err != nil {
			return err
		}
	}
	i := spans.begin("core.Filter.Insert", 0, -1, int(lc.rows))
	start := time.Now()
	for _, r := range in.inserts {
		f := cores[r.filter]
		for j, k := range r.keys {
			f.Insert(k, r.attrs[j*r.numAttrs:(j+1)*r.numAttrs])
		}
	}
	lc.coreIns = float64(time.Since(start)) / float64(lc.rows)
	spans.end(i)

	batches := make([][][]uint64, len(in.inserts))
	for j, r := range in.inserts {
		batches[j] = rowsOf(r.attrs, r.numAttrs, len(r.keys))
	}
	sfs, err := fresh()
	if err != nil {
		return err
	}
	var errs []error
	i = spans.begin("shard.ShardedFilter.InsertBatchInto", 0, -1, int(lc.rows))
	start = time.Now()
	for j, r := range in.inserts {
		errs = sfs[r.filter].InsertBatchInto(errs, r.keys, batches[j])
	}
	lc.shardIns = float64(time.Since(start)) / float64(lc.rows)
	spans.end(i)

	st, err := store.Open(store.Options{Dir: filepath.Join(e.work, "inproc-store"), Fsync: store.FsyncInterval})
	if err != nil {
		return err
	}
	defer st.Close()
	sfs, err = fresh()
	if err != nil {
		return err
	}
	logs := map[string]*store.Filter{}
	for name, sf := range sfs {
		if logs[name], err = st.Create(name, sf); err != nil {
			return err
		}
	}
	bytes0 := st.Metrics().WALAppendBytes.Value()
	i = spans.begin("store.Filter.InsertBatchInto", 0, -1, int(lc.rows))
	start = time.Now()
	for j, r := range in.inserts {
		if errs, err = logs[r.filter].InsertBatchInto(errs, r.keys, batches[j]); err != nil {
			return err
		}
	}
	lc.storeIns = float64(time.Since(start)) / float64(lc.rows)
	spans.end(i)
	lc.walBytesPerRow = float64(st.Metrics().WALAppendBytes.Value()-bytes0) / float64(lc.rows)

	// The server's insert handler, on a fresh in-memory registry.
	reg := server.NewRegistry(server.DefaultViewCacheCap)
	for name, c := range defs {
		if _, err := reg.Create(name, shardOptions(c), nil); err != nil {
			return err
		}
	}
	sh := server.NewServer(reg, server.HandlerOptions{}).Handler()
	w := &sinkWriter{h: http.Header{}}
	rd := &bytesBody{}
	var total time.Duration
	for j, r := range in.inserts {
		var body []byte
		ctype := wire.ContentType
		if in.json {
			ctype = "application/json"
			if body, err = json.Marshal(server.InsertRequest{Keys: r.keys, Attrs: batches[j]}); err != nil {
				return err
			}
		} else {
			body = wire.AppendInsert(nil, r.filter, r.keys, r.attrs, r.numAttrs)
		}
		req, _ := http.NewRequest("POST", "/filters/"+r.filter+"/insert", nil)
		req.Header.Set("Content-Type", ctype)
		rd.Reset(body)
		req.Body, req.ContentLength = rd, int64(len(body))
		w.reset()
		t0 := time.Now()
		sh.ServeHTTP(w, req)
		total += time.Since(t0)
		if w.code != http.StatusOK {
			return fmt.Errorf("in-process insert answered %d: %s", w.code, w.body)
		}
	}
	lc.serverIns = float64(total) / float64(lc.rows)
	return nil
}

// sinkWriter is a reusable http.ResponseWriter that keeps the body.
type sinkWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *sinkWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}
func (w *sinkWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body = w.body[:0]
}

// bytesBody is a reusable request body.
type bytesBody struct{ bytes.Reader }

func (b *bytesBody) Close() error { return nil }

var _ io.ReadCloser = (*bytesBody)(nil)
