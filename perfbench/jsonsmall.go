package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccf/internal/server"
	"ccf/internal/wire"
	"ccf/internal/zipfmd"
)

// The json-small workload is independent small clients: an open loop of
// 64-key JSON queries over HTTP, where the codec, HTTP, the request core
// and the view cache carry nearly all of the cost.
const (
	jsonRows    = 1 << 17 // 128k rows: the filter sits well under L2
	jsonBatch   = 64
	jsonAbsent  = 8    // keys per request never inserted
	jsonRate    = 1000 // offered requests per second
	jsonPreds   = 8    // hot predicates, attr0 = 0..7
	jsonLoadRow = 64   // rows per preload request
	jsonSLO     = 2 * time.Millisecond
	// jsonMaxLag is how late the generator may send its p99 request
	// before the run is void: past it, the offered rate is not what ran.
	jsonMaxLag   = 50 * time.Millisecond
	jsonRecord   = 4096 // requests recorded for the replay
	jsonInsertSm = 64   // preload requests recorded for the replay
)

// jsonCards are the attribute domains; attr0 has one value per hot
// predicate, so every row matches exactly one of them.
var jsonCards = []uint64{jsonPreds, 4}

type jsonSmall struct {
	ks     keyspace
	seed   int64
	create server.CreateRequest
	keys   []uint64
	attrs  []uint64
	load   []encodedInsert // the preload's requests
}

func newJSONSmall(e *env) (*jsonSmall, error) {
	j := &jsonSmall{ks: newKeyspace(e.seed), seed: e.seed,
		create: server.CreateRequest{Variant: "chained", Shards: 4, Capacity: jsonRows,
			NumAttrs: len(jsonCards), Seed: uint64(e.seed)}}
	j.keys, j.attrs = j.ks.rows(0, jsonRows, jsonCards)
	var err error
	j.load, err = jsonInsertBatches(j.keys, j.attrs, len(jsonCards), jsonLoadRow)
	return j, err
}

// setup starts an in-memory daemon and preloads every row as JSON over
// HTTP, on two connections.
func (j *jsonSmall) setup(e *env, extra ...string) (*setupResult, error) {
	d, err := startDaemon(e, extra...)
	if err != nil {
		return nil, err
	}
	res := &setupResult{d: d}
	if err := d.putJSON("PUT", "/filters/small", j.create); err != nil {
		d.kill()
		return nil, err
	}
	hc := jsonClient()
	defer hc.CloseIdleConnections()
	cpu0, _ := d.cpu()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	tallies := make([]insertTally, 2)
	lats := make([]latencies, 2)
	half := len(j.load) / 2
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := j.load[:half]
			if c == 1 {
				part = j.load[half:]
			}
			errs[c] = jsonInsertAll(hc, d.url("/filters/small/insert"), part, &lats[c], &tallies[c])
		}()
	}
	wg.Wait()
	load := time.Since(start)
	res.seconds = time.Since(d.exec).Seconds()
	if err := errors.Join(errs...); err != nil {
		d.kill()
		return nil, err
	}
	for c := range tallies {
		res.tally.rows += tallies[c].rows
		res.tally.accepted += tallies[c].accepted
		res.tally.discarded += tallies[c].discarded
		res.tally.failedRows += tallies[c].failedRows
		res.insLat.merge(&lats[c])
	}
	if res.tally.failedRows > 0 {
		d.kill()
		return nil, fmt.Errorf("json-small preload: %d rows failed", res.tally.failedRows)
	}
	cpu1, _ := d.cpu()
	res.load = load
	res.cpuRow = ratio(float64(cpu1-cpu0), float64(res.tally.rows))
	return res, nil
}

// jsonRequest is one scheduled request.
type jsonRequest struct {
	idx  []uint64
	body []byte
	pred uint64
}

// requests pre-builds the schedule's request bodies so the generator
// only sends: Zipf keys over the rows plus jsonAbsent absent keys, under
// one of the hot predicates, via the view cache.
func (j *jsonSmall) requests(n int) ([]jsonRequest, error) {
	zipf, err := zipfmd.New(1.1, 2.7, jsonRows, j.seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(j.seed))
	out := make([]jsonRequest, n)
	absent := uint64(absentBase)
	for r := range out {
		q := jsonRequest{idx: make([]uint64, jsonBatch), pred: uint64(rng.Intn(jsonPreds))}
		keys := make([]uint64, jsonBatch)
		for i := range q.idx {
			if i < jsonAbsent {
				q.idx[i] = absent
				absent++
			} else {
				q.idx[i] = uint64(zipf.Sample() - 1)
			}
			keys[i] = j.ks.key(q.idx[i])
		}
		q.body, err = json.Marshal(server.QueryRequest{Keys: keys, ViaView: true,
			Predicate: []server.CondJSON{{Attr: 0, Values: []uint64{q.pred}}}})
		if err != nil {
			return nil, err
		}
		out[r] = q
	}
	return out, nil
}

// jsonRun is one open-loop phase.
type jsonRun struct {
	start               time.Time
	due                 int64
	lat                 latencies // from due time
	service             latencies // from send
	lateness            latencies
	keys, failedReq     int64
	negatives, falsePos int64
	daemonCPU, cliCPU   time.Duration
	wall                time.Duration
}

// add folds slice r of a phase into run.
func (run *jsonRun) add(r *jsonRun) {
	run.due += r.due
	run.lat.merge(&r.lat)
	run.service.merge(&r.service)
	run.lateness.merge(&r.lateness)
	run.keys += r.keys
	run.failedReq += r.failedReq
	run.negatives += r.negatives
	run.falsePos += r.falsePos
	run.daemonCPU += r.daemonCPU
	run.cliCPU += r.cliCPU
	run.wall += r.wall
}

// measure runs the open loop for dur at jsonRate on two keep-alive
// connections. Each request is timed from its due time, so a stall
// charges every request it delays.
func (j *jsonSmall) measure(d *daemon, reqs []jsonRequest, dur time.Duration, spans *spanLog) (*jsonRun, error) {
	run := &jsonRun{due: int64(dur.Seconds() * jsonRate)}
	if run.due > int64(len(reqs)) {
		return nil, fmt.Errorf("%d requests prepared for %d due", len(reqs), run.due)
	}
	hc := jsonClient()
	defer hc.CloseIdleConnections()
	url := d.url("/filters/small/query")
	var next atomic.Int64
	var mu sync.Mutex
	cpu0, _ := d.cpu()
	ccpu0 := clientCPU()
	run.start = time.Now()
	sched := schedule{start: run.start, period: time.Second / jsonRate}
	cutoff := run.start.Add(dur + time.Second) // requests not sent by then count as failed
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, service, lateness latencies
			var keys, failed int64
			var tt truthTally
			defer func() {
				mu.Lock()
				run.lat.merge(&lat)
				run.service.merge(&service)
				run.lateness.merge(&lateness)
				run.keys += keys
				run.failedReq += failed
				run.negatives += tt.negatives
				run.falsePos += tt.falsePos
				mu.Unlock()
			}()
			for {
				k := next.Add(1) - 1
				if k >= run.due {
					return
				}
				due := sched.due(k)
				sleepUntil(due)
				sent := time.Now()
				if sent.After(cutoff) {
					failed++
					continue
				}
				q := &reqs[k]
				sp := int32(-1)
				if spans != nil {
					sp = spans.begin("client.query", uint64(k), -1, jsonBatch)
				}
				var resp server.QueryResponse
				err := postJSON(hc, url, q.body, &resp)
				done := time.Now()
				if spans != nil {
					spans.end(sp)
				}
				if err != nil {
					if errors.Is(err, errRefused) || isTimeout(err) {
						failed++
						openLoopSample(&lat, &service, &lateness, due, sent, done, 0)
						continue
					}
					errs[c] = err
					return
				}
				if len(resp.Results) != len(q.idx) {
					errs[c] = violationf("json result for %d keys, sent %d", len(resp.Results), len(q.idx))
					return
				}
				err = tt.check(len(q.idx), func(i int) bool {
					return q.idx[i] < jsonRows && j.ks.attr(q.idx[i], 0, jsonCards[0]) == q.pred
				}, func(i int) bool { return resp.Results[i] }, func(i int) string {
					return fmt.Sprintf("preloaded row %d", q.idx[i])
				})
				if err != nil {
					errs[c] = err
					return
				}
				keys += int64(len(q.idx))
				openLoopSample(&lat, &service, &lateness, due, sent, done, len(q.idx))
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(run.start)
	run.cliCPU = clientCPU() - ccpu0
	cpu1, _ := d.cpu()
	run.daemonCPU = cpu1 - cpu0
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if lag := time.Duration(run.lateness.percentile(9900) * 1e3); lag > jsonMaxLag {
		return nil, fmt.Errorf("the generator fell %v behind its schedule at p99 (limit %v)", lag, jsonMaxLag)
	}
	return run, nil
}

// sleepUntil blocks the calling thread in nanosleep: the runtime's own
// timers round waits under a millisecond up to one, which would show up
// as generator lateness at this request rate.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func isTimeout(err error) bool {
	var ne interface{ Timeout() bool }
	return errors.As(err, &ne) && ne.Timeout()
}

func runJSONSmall(e *env) (*report, error) {
	j, err := newJSONSmall(e)
	if err != nil {
		return nil, err
	}
	reqs, err := j.requests(int(e.measure.Seconds()*jsonRate) + 1)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return j.traced(e, reqs)
	}
	rep := newReport()
	setups, err := repeatSetup(e, j.setup)
	if err != nil {
		return nil, err
	}
	d := setups[len(setups)-1].d
	defer d.kill()
	slice := e.measure / measureSlices
	run := &jsonRun{}
	var qsegs []segment
	for i := 0; i < measureSlices; i++ {
		if i > 0 {
			more, err := timedSetups(e, j.setup)
			if err != nil {
				return nil, err
			}
			setups = append(setups, more...)
		}
		r, err := j.measure(d, reqs[run.due:], slice, nil)
		if err != nil {
			return nil, err
		}
		run.add(r)
		qsegs = append(qsegs, r.lat.windows(r.start, slice, queryWindow)...)
	}
	e.logf("json-small: %d requests due, %d keys answered", run.due, run.keys)
	s := &e2eRun{
		setup: j.setup, setups: setups, d: d, qlat: &run.lat, qsegs: qsegs,
		requests: run.due, failedReq: run.failedReq,
		negatives: run.negatives, falsePos: run.falsePos, slo: jsonSLO,
	}
	if err := s.finish(e, rep); err != nil {
		return nil, err
	}
	// The open loop's rate is its schedule: goodput is keys answered over
	// the wall time, not the faster windows' rate.
	rep.metrics["query_keys_per_s"] = float64(run.keys) / run.wall.Seconds()
	rep.metrics["rows_kept_frac"] = ratio(float64(run.keys-run.negatives+run.falsePos), float64(run.keys))
	rep.provenance["lateness_p99_us"] = run.lateness.percentile(9900)
	rep.provenance["lateness_p50_us"] = run.lateness.percentile(5000)
	rep.provenance["service_p50_us"] = run.service.percentile(5000)
	rep.provenance["service_p99_us"] = run.service.percentile(9900)
	rep.provenance["offered_rate"] = jsonRate
	return rep, nil
}

// traced is the per-layer run for json-small.
func (j *jsonSmall) traced(e *env, reqs []jsonRequest) (*report, error) {
	rep := newReport()
	spans := newSpanLog()
	half := e.measure / 2
	s0, err := j.setup(e)
	if err != nil {
		return nil, err
	}
	run0, err := j.measure(s0.d, reqs, half, nil)
	if err != nil {
		s0.d.kill()
		return nil, err
	}
	if err := s0.d.stop(); err != nil {
		return nil, err
	}
	s1, err := j.setup(e, "-trace-sample", "1")
	if err != nil {
		return nil, err
	}
	defer s1.d.kill()
	run1, err := j.measure(s1.d, reqs, half, spans)
	if err != nil {
		return nil, err
	}
	sc, err := s1.d.scrape()
	if err != nil {
		return nil, err
	}
	defs := []filterDef{{name: "small", create: j.create, keys: j.keys, attrs: j.attrs}}
	if err := snapshots(s1.d, defs); err != nil {
		return nil, err
	}
	var qrec []recQuery
	for k := 0; k < len(reqs) && len(qrec) < jsonRecord; k++ {
		keys := make([]uint64, len(reqs[k].idx))
		for i, x := range reqs[k].idx {
			keys[i] = j.ks.key(x)
		}
		qrec = append(qrec, recQuery{filter: "small", keys: keys, viaView: true,
			pred: []wire.Cond{{Attr: 0, Values: []uint64{reqs[k].pred}}}})
	}
	var irec []recInsert
	for lo := 0; lo < len(j.keys) && len(irec) < jsonInsertSm; lo += jsonLoadRow {
		hi := min(lo+jsonLoadRow, len(j.keys))
		irec = append(irec, recInsert{filter: "small", keys: j.keys[lo:hi],
			attrs: j.attrs[lo*len(jsonCards) : hi*len(jsonCards)], numAttrs: len(jsonCards)})
	}
	tcp, pipe, httpNs, err := transports(s1.d, qrec)
	if err != nil {
		return nil, err
	}
	inval, err := viewInvalidations(s1.d)
	if err != nil {
		return nil, err
	}
	if err := s1.d.stop(); err != nil {
		return nil, err
	}
	// The open loop's throughput is its schedule, so tracing overhead is
	// read from service time per key instead.
	svc0 := float64(run0.service.sum()) / float64(run0.keys)
	svc1 := float64(run1.service.sum()) / float64(run1.keys)
	lv := &liveFigures{
		path:         "http",
		observed:     svc1,
		keys:         run1.keys,
		untracedRate: 1 / svc0,
		tracedRate:   1 / svc1,
		daemonCPUKey: float64(run0.daemonCPU) / float64(run0.keys),
		daemonCPURow: s0.cpuRow,
		clientCPUKey: float64(run0.cliCPU) / float64(run0.keys),
		latenessP99:  run0.lateness.percentile(9900),
		discarded:    s1.tally.discarded,
		sc:           sc,
		invalidated:  inval,
	}
	lc, err := replayLayers(e, &layerInput{filters: defs, queries: qrec, inserts: irec, json: true}, spans)
	if err != nil {
		return nil, err
	}
	rep.attempted = run0.due + run1.due
	rep.failed = run0.failedReq + run1.failedReq
	return rep, layerMetrics(e, "json-small", rep, lc, lv, tcp, pipe, httpNs, spans)
}
