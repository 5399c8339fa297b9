package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/server"
	"ccf/internal/wire"
	"ccf/internal/zipfmd"
)

// The ingest workload streams durable inserts beside reads: the only
// workload where the store, the multi-level ladder walk and seqlock
// contention do real work.
const (
	ingestCapacity = 1 << 16 // well below a cycle's row count, so the ladder grows
	ingestPreload  = 3 << 14 // 0.75 of the initial capacity
	// ingestRows is a cycle's row budget: a cycle ends once this many
	// rows are acked (or at ingestCycleLimit). The measured phase repeats
	// cycles, each on a freshly created and preloaded filter, so every
	// cycle streams the same rows from the same start, and the final
	// population that bits_per_row, the peak RSS and the restart measure
	// is the same from run to run.
	ingestRows       = 1 << 20
	ingestCycleLimit = 60 * time.Second
	ingestBatch      = 1024
	ingestQueryBatch = 64
	ingestAbsent     = 8 // keys per query batch never inserted
	// ingestCheckpointBytes is the daemon's -checkpoint-bytes, small
	// enough that checkpoints happen within a run.
	ingestCheckpointBytes = 4 << 20
	ingestSLO             = 2 * time.Millisecond
	ingestRecord          = 4096 // query requests recorded for the replay
	ingestInsertSample    = 64   // insert batches recorded for the replay
)

// ingestCards are the attribute domains of the filter's two attributes.
var ingestCards = []uint64{8, 4}

type ingest struct {
	ks     keyspace
	seed   int64
	create server.CreateRequest
	flags  []string
	// insReq and queryReq number the spans' requests across cycles.
	insReq, queryReq uint64
}

func newIngest(e *env, dir string) *ingest {
	return &ingest{
		ks:   newKeyspace(e.seed),
		seed: e.seed,
		create: server.CreateRequest{Variant: "chained", Shards: 4, Capacity: ingestCapacity,
			NumAttrs: len(ingestCards), Seed: uint64(e.seed)},
		flags: []string{"-data-dir", dir, "-fsync", "interval", "-auto-grow",
			"-checkpoint-bytes", strconv.Itoa(ingestCheckpointBytes)},
		insReq: 1 << 48, queryReq: 2 << 48,
	}
}

// setup starts a durable daemon on a fresh data directory and preloads
// the first population through the WAL.
func (g *ingest) setup(e *env, extra ...string) (*setupResult, error) {
	if err := os.RemoveAll(g.flags[1]); err != nil {
		return nil, err
	}
	d, err := startDaemon(e, append(append([]string{}, g.flags...), extra...)...)
	if err != nil {
		return nil, err
	}
	res := &setupResult{d: d}
	cpu0, _ := d.cpu()
	start := time.Now()
	err = g.fill(d, &res.insLat, &res.tally)
	load := time.Since(start)
	res.seconds = time.Since(d.exec).Seconds()
	if err != nil {
		d.kill()
		return nil, err
	}
	cpu1, _ := d.cpu()
	res.load = load
	res.cpuRow = ratio(float64(cpu1-cpu0), float64(res.tally.rows))
	return res, nil
}

// fill creates the filter and preloads the first population through the
// WAL.
func (g *ingest) fill(d *daemon, lat *latencies, t *insertTally) error {
	if err := d.putJSON("PUT", "/filters/ingest", g.create); err != nil {
		return err
	}
	keys, attrs := g.ks.rows(0, ingestPreload, ingestCards)
	w, err := dialWire(d.wireAddr, pushdownDepth, lat, nil, nil)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.insertAll("ingest", keys, attrs, len(ingestCards), ingestBatch, t, nil); err != nil {
		return err
	}
	if t.failedRows > 0 {
		return fmt.Errorf("ingest preload: %d rows failed", t.failedRows)
	}
	return nil
}

// ingestRun is one cycle of a measured phase, or (see total) all of them.
type ingestRun struct {
	start               time.Time
	wall                time.Duration
	acked               uint64 // rows [0, acked) were acked
	failedRows          map[uint64]bool
	insRows, insFailed  int64
	ilat, qlat          latencies
	keys, requests      int64
	failedReq           int64
	negatives, falsePos int64
	discarded           int64
	qrec                []recQuery
	irec                []recInsert
	daemonCPU, cliCPU   time.Duration
	grows, folds, ckpts float64
	bitsPerRow          float64 // at the end of the cycle, once settled
}

// predSet is the attr0 values query batch b asks for: four of the
// eight, so about half the acked keys answer true.
func predSet(b int) []uint64 {
	out := make([]uint64, 4)
	for i := range out {
		out[i] = uint64(b+i) % ingestCards[0]
	}
	return out
}

func inSet(v uint64, set []uint64) bool {
	for _, x := range set {
		if x == v {
			return true
		}
	}
	return false
}

// cycles repeats the ingest cycle on d until dur has passed, on a fresh
// filter each time, and leaves the last cycle's filter in place. Each
// cycle must grow the ladder, fold it and checkpoint.
func (g *ingest) cycles(d *daemon, dur time.Duration, spans *spanLog, record bool) ([]*ingestRun, error) {
	start := time.Now()
	var out []*ingestRun
	for {
		run, err := g.measure(d, spans, record && len(out) == 0)
		if err != nil {
			return nil, err
		}
		if run.grows < 1 || run.folds < 1 || run.ckpts < 1 {
			return nil, fmt.Errorf("ingest did not exercise the store: %v grows, %v folds, %v checkpoints in a cycle",
				run.grows, run.folds, run.ckpts)
		}
		out = append(out, run)
		if time.Since(start) >= dur {
			return out, nil
		}
		if err := d.putJSON("DELETE", "/filters/ingest", nil); err != nil {
			return nil, err
		}
		var t insertTally
		if err := g.fill(d, nil, &t); err != nil {
			return nil, err
		}
	}
}

// total folds a phase's cycles into one run: the counts and latencies
// add up, and the acked rows are the last cycle's, whose filter is still
// in place.
func total(cs []*ingestRun) *ingestRun {
	last := cs[len(cs)-1]
	t := &ingestRun{start: cs[0].start, acked: last.acked, failedRows: last.failedRows}
	for _, c := range cs {
		t.wall += c.wall
		t.insRows += c.insRows
		t.insFailed += c.insFailed
		t.ilat.merge(&c.ilat)
		t.qlat.merge(&c.qlat)
		t.keys += c.keys
		t.requests += c.requests
		t.failedReq += c.failedReq
		t.negatives += c.negatives
		t.falsePos += c.falsePos
		t.discarded += c.discarded
		t.qrec = append(t.qrec, c.qrec...)
		t.irec = append(t.irec, c.irec...)
		t.daemonCPU += c.daemonCPU
		t.cliCPU += c.cliCPU
		t.grows += c.grows
		t.folds += c.folds
		t.ckpts += c.ckpts
	}
	return t
}

// segments returns each cycle's insert and query segment.
func segments(cs []*ingestRun) (ins, query []segment) {
	for _, c := range cs {
		ins = append(ins, segment{units: float64(c.insRows), seconds: c.wall.Seconds(), ns: c.ilat.ns})
		query = append(query, segment{units: float64(c.keys), seconds: c.wall.Seconds(), ns: c.qlat.ns})
	}
	return ins, query
}

// measure runs one cycle: it streams inserts on one connection and
// queries on the other, both closed loop, checking every answer against
// the acked prefix, until the cycle's rows are acked.
func (g *ingest) measure(d *daemon, spans *spanLog, record bool) (*ingestRun, error) {
	run := &ingestRun{acked: ingestPreload, failedRows: map[uint64]bool{}}
	var acked atomic.Uint64
	acked.Store(ingestPreload)
	var mu sync.Mutex // guards run.failedRows
	sc0, err := d.scrape()
	if err != nil {
		return nil, err
	}
	watch := watchGrowth(d, 250*time.Millisecond)
	cpu0, _ := d.cpu()
	ccpu0 := clientCPU()
	run.start = time.Now()
	deadline := run.start.Add(ingestCycleLimit)
	var stop atomic.Bool
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // inserts
		defer wg.Done()
		w, err := dialWire(d.wireAddr, 1, &run.ilat, spans, &g.insReq)
		if err != nil {
			errs[0] = err
			stop.Store(true)
			return
		}
		defer w.close()
		var t insertTally
		// The phase ends when the budget is acked.
		defer stop.Store(true)
		for next := uint64(ingestPreload); next < ingestRows && !stop.Load() && time.Now().Before(deadline); next += ingestBatch {
			keys, attrs := g.ks.rows(next, next+ingestBatch, ingestCards)
			if record && len(run.irec) < ingestInsertSample {
				run.irec = append(run.irec, recInsert{filter: "ingest", keys: keys, attrs: attrs, numAttrs: len(ingestCards)})
			}
			err := w.insertAll("ingest", keys, attrs, len(ingestCards), ingestBatch, &t, func(_, n int, st []byte) {
				mu.Lock()
				for i := 0; i < n; i++ {
					if rowFailed(st, i) {
						run.failedRows[next+uint64(i)] = true
					}
				}
				mu.Unlock()
			})
			if err != nil {
				errs[0] = err
				stop.Store(true)
				return
			}
			acked.Store(next + ingestBatch)
		}
		run.insRows, run.insFailed, run.discarded = t.rows, t.failedRows, t.discarded
	}()
	go func() { // queries
		defer wg.Done()
		zipf, err := zipfmd.New(1.1, 2.7, 1<<20, g.seed)
		if err != nil {
			errs[1] = err
			return
		}
		w, err := dialWire(d.wireAddr, 1, &run.qlat, spans, &g.queryReq)
		if err != nil {
			errs[1] = err
			stop.Store(true)
			return
		}
		defer w.close()
		var tt truthTally
		defer func() { run.negatives, run.falsePos = tt.negatives, tt.falsePos }()
		idx := make([]uint64, ingestQueryBatch)
		keys := make([]uint64, ingestQueryBatch)
		absent := uint64(absentBase)
		for b := 0; !stop.Load() && time.Now().Before(deadline); b++ {
			n := acked.Load()
			for i := range idx {
				if i < ingestAbsent {
					idx[i] = absent
					absent++
				} else {
					r := uint64(zipf.Sample() - 1)
					idx[i] = n - 1 - r%n // the newest rows are the hottest
				}
				keys[i] = g.ks.key(idx[i])
			}
			set := predSet(b)
			pred := []wire.Cond{{Attr: 0, Values: set}}
			if record && len(run.qrec) < ingestRecord {
				run.qrec = append(run.qrec, recQuery{filter: "ingest", pred: pred, keys: append([]uint64(nil), keys...)})
			}
			err := w.queryAll("ingest", pred, keys, ingestQueryBatch, false, func(_ int, r *wire.Result) error {
				mu.Lock()
				defer mu.Unlock()
				run.keys += int64(r.N)
				return tt.check(r.N, func(i int) bool {
					return idx[i] < n && !run.failedRows[idx[i]] && inSet(g.ks.attr(idx[i], 0, ingestCards[0]), set)
				}, r.Bit, func(i int) string { return fmt.Sprintf("acked row %d", idx[i]) })
			})
			if err != nil {
				errs[1] = err
				stop.Store(true)
				return
			}
		}
		run.requests = int64(run.qlat.count())
		run.failedReq = w.failed
	}()
	wg.Wait()
	run.wall = time.Since(run.start)
	sc1, err := quiesce(d, 30*time.Second)
	if err != nil {
		errs = append(errs, err)
	} else {
		run.folds = sc1.sum("ccfd_folds_completed_total") - sc0.sum("ccfd_folds_completed_total")
		run.ckpts = sc1.sum("ccfd_checkpoints_total") - sc0.sum("ccfd_checkpoints_total")
		run.bitsPerRow = ratio(sc1.sum("ccfd_filter_size_bits"), sc1.sum("ccfd_filter_rows"))
	}
	run.grows = watch.finish()
	run.acked = acked.Load()
	run.cliCPU = clientCPU() - ccpu0
	cpu1, _ := d.cpu()
	run.daemonCPU = cpu1 - cpu0
	return run, errors.Join(errs...)
}

// quiesce waits until the daemon's background folds and checkpoints have
// drained, so the end state is the same whenever the last one started,
// and returns the settled daemon's metrics.
func quiesce(d *daemon, limit time.Duration) (scrape, error) {
	deadline := time.Now().Add(limit)
	for {
		sc, err := d.scrape()
		if err != nil {
			return nil, err
		}
		settled := sc.sum("ccfd_folds_completed_total")+sc.sum("ccfd_folds_aborted_total") >= sc.sum("ccfd_folds_scheduled_total")
		if settled && sc.sum("ccfd_fold_queue_depth") == 0 && sc.sum("ccfd_checkpoint_queue_depth") == 0 {
			return sc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("background folds and checkpoints still running after %v", limit)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// restartAndVerify drains d, restarts on the same data directory, and
// checks that every acked row answers true. It returns the restarted
// daemon's exec-to-ready seconds and its recovery figures.
func (g *ingest) restartAndVerify(e *env, d *daemon, run *ingestRun, verify bool) (float64, scrape, *daemon, error) {
	if err := d.stop(); err != nil {
		return 0, nil, nil, err
	}
	d2, err := startDaemon(e, g.flags...)
	if err != nil {
		return 0, nil, nil, err
	}
	ready := d2.ready.Sub(d2.exec).Seconds()
	sc, err := d2.scrape()
	if err != nil {
		d2.kill()
		return 0, nil, nil, err
	}
	if !verify {
		return ready, sc, d2, nil
	}
	// Group the acked rows by attr0 and ask for exactly that value.
	groups := make([][]uint64, ingestCards[0])
	for i := uint64(0); i < run.acked; i++ {
		if !run.failedRows[i] {
			v := g.ks.attr(i, 0, ingestCards[0])
			groups[v] = append(groups[v], g.ks.key(i))
		}
	}
	w, err := dialWire(d2.wireAddr, pushdownDepth, nil, nil, nil)
	if err != nil {
		d2.kill()
		return 0, nil, nil, err
	}
	defer w.close()
	for v, keys := range groups {
		pred := []wire.Cond{{Attr: 0, Values: []uint64{uint64(v)}}}
		err := w.queryAll("ingest", pred, keys, ingestBatch, false, func(off int, r *wire.Result) error {
			for i := 0; i < r.N; i++ {
				if !r.Bit(i) {
					return violationf("acked key %d lost across the restart", keys[off+i])
				}
			}
			return nil
		})
		if err == nil && w.failed > 0 {
			err = fmt.Errorf("%d verification requests failed after the restart", w.failed)
		}
		if err != nil {
			d2.kill()
			return 0, nil, nil, err
		}
	}
	return ready, sc, d2, nil
}

func runIngest(e *env) (*report, error) {
	g := newIngest(e, filepath.Join(e.work, "data"))
	if e.trace {
		return g.traced(e)
	}
	rep := newReport()
	setups, err := repeatSetup(e, g.setup)
	if err != nil {
		return nil, err
	}
	d := setups[len(setups)-1].d
	defer func() { d.kill() }()
	cs, err := g.cycles(d, e.measure, nil, false)
	if err != nil {
		return nil, err
	}
	run := total(cs)
	e.logf("ingest: %d cycles, %d rows acked in the last, %d keys queried, %v grows, %v folds, %v checkpoints",
		len(cs), run.acked, run.keys, run.grows, run.folds, run.ckpts)
	var bits []float64
	for i, c := range cs {
		e.logf("ingest cycle %d: %v grows, %v folds, %v checkpoints, %.1f bits/row", i, c.grows, c.folds, c.ckpts, c.bitsPerRow)
		bits = append(bits, c.bitsPerRow)
	}
	isegs, qsegs := segments(cs)
	s := &e2eRun{
		setup: g.setup, setups: setups, d: d, qlat: &run.qlat, qsegs: qsegs,
		requests: run.requests, failedReq: run.failedReq,
		negatives: run.negatives, falsePos: run.falsePos, slo: ingestSLO,
		insertRows: run.insRows, ilat: &run.ilat, isegs: isegs, insFailed: run.insFailed,
		restart: func() (float64, error) {
			var readies []float64
			for i := 0; i < restartRepeats; i++ {
				ready, _, d2, err := g.restartAndVerify(e, d, run, i == 0)
				if err != nil {
					return 0, err
				}
				d = d2
				readies = append(readies, ready)
			}
			return median(readies), d.stop()
		},
	}
	if err := s.finish(e, rep); err != nil {
		return nil, err
	}
	rep.metrics["rows_kept_frac"] = ratio(float64(run.keys-run.negatives+run.falsePos), float64(run.keys))
	// Where a cycle's last fold lands, and so its final size, depends on
	// timing: the median over cycles is the end state a cycle reaches.
	rep.metrics["bits_per_row"] = median(bits)
	rep.provenance["fsync"] = "interval"
	rep.provenance["cycles"] = len(cs)
	rep.provenance["cycle_rows"] = run.acked
	rep.provenance["ladder_grows"] = run.grows
	return rep, nil
}

// traced is the per-layer run for ingest.
func (g *ingest) traced(e *env) (*report, error) {
	rep := newReport()
	spans := newSpanLog()
	half := e.measure / 2
	s0, err := g.setup(e)
	if err != nil {
		return nil, err
	}
	cs0, err := g.cycles(s0.d, half, nil, true)
	if err != nil {
		s0.d.kill()
		return nil, err
	}
	run0 := total(cs0)
	if err := s0.d.stop(); err != nil {
		return nil, err
	}
	s1, err := g.setup(e, "-trace-sample", "1")
	if err != nil {
		return nil, err
	}
	d := s1.d
	defer func() { d.kill() }()
	cs1, err := g.cycles(d, half, spans, false)
	if err != nil {
		return nil, err
	}
	run1 := total(cs1)
	sc, err := d.scrape()
	if err != nil {
		return nil, err
	}
	def := filterDef{name: "ingest", create: g.create}
	def.keys, def.attrs = g.ks.rows(0, run1.acked, ingestCards)
	defs := []filterDef{def}
	if err := snapshots(d, defs); err != nil {
		return nil, err
	}
	tcp, pipe, httpNs, err := transports(d, run0.qrec)
	if err != nil {
		return nil, err
	}
	untraced := float64(run0.keys) / run0.wall.Seconds()
	traced := float64(run1.keys) / run1.wall.Seconds()
	lv := &liveFigures{
		path:         "tcp",
		observed:     float64(run1.qlat.sum()) / float64(run1.keys),
		keys:         run1.keys,
		untracedRate: untraced,
		tracedRate:   traced,
		daemonCPUKey: float64(run0.daemonCPU) / float64(run0.keys+run0.insRows),
		daemonCPURow: s0.cpuRow,
		clientCPUKey: float64(run0.cliCPU) / float64(run0.keys+run0.insRows),
		discarded:    run1.discarded,
		grows:        run1.grows,
		cycles:       len(cs1),
		sc:           sc,
	}
	_, rsc, d2, err := g.restartAndVerify(e, d, run1, true)
	if err != nil {
		return nil, err
	}
	d = d2
	lv.store = storeFigures{
		recoveryS:       rsc.sum("ccfd_recovery_seconds"),
		recordsReplayed: rsc.sum("ccfd_recovery_records_replayed"),
		diskBytesPerRow: float64(dirBytes(g.flags[1])) / float64(run1.acked),
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	lc, err := replayLayers(e, &layerInput{filters: defs, queries: run0.qrec, inserts: run0.irec, autoGrow: true}, spans)
	if err != nil {
		return nil, err
	}
	rep.attempted = run0.requests + run1.requests + run0.insRows + run1.insRows
	rep.failed = run0.failedReq + run1.failedReq + run0.insFailed + run1.insFailed
	rep.provenance["fsync"] = "interval"
	return rep, layerMetrics(e, "ingest", rep, lc, lv, tcp, pipe, httpNs, spans)
}
