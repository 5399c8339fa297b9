package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/core"
	"ccf/internal/engine"
	"ccf/internal/imdb"
	"ccf/internal/joblight"
	"ccf/internal/server"
	"ccf/internal/wire"
)

// The pushdown workload is the paper's JOB-light semijoin reduction
// (§10.3) driven through ccfd: each table's CCF lives in the daemon and
// the client probes it with only the rows still alive.
const (
	pushdownScale    = 0.02 // synthetic IMDB scale: 1.24M rows in 6 tables
	pushdownBatch    = 1024
	pushdownDepth    = 16 // requests in flight per connection
	pushdownConns    = 2
	pushdownYearBins = 16
	// pushdownSLO is the per-request latency limit behind slo_miss_frac.
	pushdownSLO = 10 * time.Millisecond
	// pushdownDataSeed fixes the dataset and the query set. JOB-light is
	// one dataset and one query set, and a different query draw changes
	// the work per key (rows kept ranged 0.037 to 0.075 over four draws),
	// so the run seed varies what a rerun of the same workload varies:
	// the sketches' hash seed and the order instances are probed in.
	pushdownDataSeed = 1
)

// pdTable is one table's rows as the daemon receives them.
type pdTable struct {
	name     string
	cols     []string
	engCols  []int
	yearPos  int
	create   server.CreateRequest
	keys     []uint64
	attrs    []uint64 // row-major, len(cols) per row, year binned
	numAttrs int
}

// pdStage is one probe of an instance: the table, its predicate as the
// daemon takes it, and the exact answer per movie id.
type pdStage struct {
	table *pdTable
	pred  []wire.Cond
	truth []uint64 // bitmap: some row of the table with this key passes its predicates
}

// pdInstance is one qualifying (query, base table) pair.
type pdInstance struct {
	alive  []uint32 // keys of the base rows passing the base predicates
	stages []pdStage
}

type pushdown struct {
	tables   []*pdTable
	insts    []*pdInstance
	scanNs   float64 // base scan cost per row
	maxMovie int
}

// predColumns mirrors the columns joblight sketches per table.
func predColumns(table string) []string {
	switch table {
	case "title":
		return []string{"kind_id", "production_year"}
	case "movie_companies":
		return []string{"company_id", "company_type_id"}
	case "cast_info":
		return []string{"role_id"}
	case "movie_info", "movie_info_idx":
		return []string{"info_type_id"}
	case "movie_keyword":
		return []string{"keyword_id"}
	}
	return nil
}

// preparePushdown generates the dataset, the queries, the ground truth
// and the rows to load. None of it is timed as set-up: it is the
// client's input, not the daemon's work.
func preparePushdown(seed int64) (*pushdown, error) {
	ds, err := imdb.Generate(pushdownScale, pushdownDataSeed)
	if err != nil {
		return nil, err
	}
	queries, err := joblight.Workload(ds, pushdownDataSeed)
	if err != nil {
		return nil, err
	}
	binner, err := core.NewBinner(imdb.YearLo, imdb.YearHi, pushdownYearBins)
	if err != nil {
		return nil, err
	}
	pd := &pushdown{maxMovie: ds.NumMovies}
	byName := map[string]*pdTable{}
	for _, name := range imdb.TableNames() {
		tab, err := ds.Table(name)
		if err != nil {
			return nil, err
		}
		t := &pdTable{name: name, cols: predColumns(name), yearPos: -1}
		t.numAttrs = len(t.cols)
		for i, c := range t.cols {
			ci, err := tab.ColIdx(c)
			if err != nil {
				return nil, err
			}
			t.engCols = append(t.engCols, ci)
			if c == "production_year" {
				t.yearPos = i
			}
		}
		p := core.Params{Variant: core.VariantChained, KeyBits: 12, AttrBits: 8, NumAttrs: t.numAttrs, Seed: uint64(seed)}
		predicted := core.PredictEntries(core.VariantChained, engine.DistinctVectorsPerKey(tab, t.engCols), p)
		t.create = server.CreateRequest{
			Variant: "chained", Shards: 4, Capacity: predicted, NumAttrs: t.numAttrs,
			KeyBits: 12, AttrBits: 8, Seed: uint64(seed),
		}
		t.keys = make([]uint64, tab.NumRows())
		t.attrs = make([]uint64, tab.NumRows()*t.numAttrs)
		for row, k := range tab.Keys {
			t.keys[row] = uint64(k)
			for i, ci := range t.engCols {
				v := uint64(tab.Cols[ci].Vals[row])
				if i == t.yearPos {
					v = binner.Bin(v)
				}
				t.attrs[row*t.numAttrs+i] = v
			}
		}
		pd.tables = append(pd.tables, t)
		byName[name] = t
	}

	// Stages are shared by every instance of a query, so truth is built
	// once per (query, table).
	type qt struct {
		q     int
		table string
	}
	stages := map[qt]*pdStage{}
	stageFor := func(q *joblight.Query, table string) (*pdStage, error) {
		if s, ok := stages[qt{q.ID, table}]; ok {
			return s, nil
		}
		tab, err := ds.Table(table)
		if err != nil {
			return nil, err
		}
		t := byName[table]
		preds := q.PredsOn(table)
		exact, err := enginePreds(tab, preds)
		if err != nil {
			return nil, err
		}
		s := &pdStage{table: t, truth: make([]uint64, pd.maxMovie/64+1)}
		for row, k := range tab.Keys {
			if engine.MatchRow(tab, row, exact) {
				s.truth[k/64] |= 1 << (k % 64)
			}
		}
		if s.pred, err = wirePredicate(t, preds, binner); err != nil {
			return nil, err
		}
		stages[qt{q.ID, table}] = s
		return s, nil
	}

	var scanned int64
	var scanTime time.Duration
	for _, ref := range joblight.QualifyingInstances(queries) {
		q := ref.Query
		base, err := ds.Table(ref.Base)
		if err != nil {
			return nil, err
		}
		basePreds, err := enginePreds(base, q.PredsOn(ref.Base))
		if err != nil {
			return nil, err
		}
		inst := &pdInstance{}
		start := time.Now()
		for row, k := range base.Keys {
			if engine.MatchRow(base, row, basePreds) {
				inst.alive = append(inst.alive, k)
			}
		}
		scanTime += time.Since(start)
		scanned += int64(base.NumRows())
		for _, t := range q.Tables {
			if t == ref.Base {
				continue
			}
			s, err := stageFor(q, t)
			if err != nil {
				return nil, err
			}
			inst.stages = append(inst.stages, *s)
		}
		pd.insts = append(pd.insts, inst)
	}
	pd.scanNs = ratio(float64(scanTime), float64(scanned))
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pd.insts), func(i, j int) { pd.insts[i], pd.insts[j] = pd.insts[j], pd.insts[i] })
	return pd, nil
}

// enginePreds converts query predicates to exact engine predicates.
func enginePreds(tab *engine.Table, preds []joblight.QueryPred) ([]engine.Pred, error) {
	var out []engine.Pred
	for _, p := range preds {
		ci, err := tab.ColIdx(p.Col)
		if err != nil {
			return nil, err
		}
		out = append(out, engine.Pred{Col: ci, Op: p.Op, Value: p.Value, Values: p.Values, Lo: p.Lo, Hi: p.Hi})
	}
	return out, nil
}

// wirePredicate converts query predicates to the CCF predicate the
// daemon evaluates: attribute positions, with year ranges as binned
// in-lists (§9.1).
func wirePredicate(t *pdTable, preds []joblight.QueryPred, b *core.Binner) ([]wire.Cond, error) {
	var out []wire.Cond
	for _, p := range preds {
		pos := -1
		for i, c := range t.cols {
			if c == p.Col {
				pos = i
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("column %s not sketched for %s", p.Col, t.name)
		}
		bin := func(v int64) uint64 {
			if pos == t.yearPos {
				return b.Bin(uint64(v))
			}
			return uint64(v)
		}
		switch p.Op {
		case engine.OpRange:
			if pos != t.yearPos {
				return nil, fmt.Errorf("range predicate on unbinned column %s", p.Col)
			}
			c := b.InRange(pos, uint64(p.Lo), uint64(p.Hi))
			out = append(out, wire.Cond{Attr: c.Attr, Values: c.Values})
		case engine.OpEq:
			out = append(out, wire.Cond{Attr: pos, Values: []uint64{bin(p.Value)}})
		case engine.OpIn:
			c := wire.Cond{Attr: pos}
			for _, v := range p.Values {
				c.Values = append(c.Values, bin(v))
			}
			out = append(out, c)
		default:
			return nil, fmt.Errorf("unsupported predicate op %v", p.Op)
		}
	}
	return out, nil
}

// setupResult is one timed set-up: exec to /readyz 200 with every filter
// created and preloaded.
type setupResult struct {
	d       *daemon
	seconds float64
	insLat  latencies
	tally   insertTally
	load    time.Duration // loading the rows, which the insert figures time
	cpuRow  float64       // daemon CPU per preloaded row, ns
}

// pushdownSetup starts a daemon and loads every table over binary TCP,
// the tables split across the two connections.
func (pd *pushdown) setup(e *env, extra ...string) (*setupResult, error) {
	d, err := startDaemon(e, extra...)
	if err != nil {
		return nil, err
	}
	res := &setupResult{d: d}
	fail := func(err error) (*setupResult, error) {
		d.kill()
		return nil, err
	}
	for _, t := range pd.tables {
		if err := d.putJSON("PUT", "/filters/"+t.name, t.create); err != nil {
			return fail(err)
		}
	}
	cpu0, _ := d.cpu()
	loadStart := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, pushdownConns)
	tallies := make([]insertTally, pushdownConns)
	lats := make([]latencies, pushdownConns)
	for c := 0; c < pushdownConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := dialWire(d.wireAddr, pushdownDepth, &lats[c], nil, nil)
			if err != nil {
				errs[c] = err
				return
			}
			defer w.close()
			// cast_info alone is about as many rows as the other five.
			for _, t := range pd.tables {
				if (t.name == "cast_info") != (c == 0) {
					continue
				}
				if err := w.insertAll(t.name, t.keys, t.attrs, t.numAttrs, pushdownBatch, &tallies[c], nil); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	load := time.Since(loadStart)
	res.seconds = time.Since(d.exec).Seconds()
	if err := errors.Join(errs...); err != nil {
		return fail(err)
	}
	cpu1, _ := d.cpu()
	for c := range tallies {
		res.tally.rows += tallies[c].rows
		res.tally.accepted += tallies[c].accepted
		res.tally.discarded += tallies[c].discarded
		res.tally.failedRows += tallies[c].failedRows
		res.insLat.merge(&lats[c])
	}
	res.load = load
	res.cpuRow = ratio(float64(cpu1-cpu0), float64(res.tally.rows))
	return res, nil
}

// pdRun is one measured phase's tallies.
type pdRun struct {
	keys, requests, failedReq int64
	negatives, falsePos       int64
	start                     time.Time
	wall                      time.Duration
	lat                       latencies
	passes                    []time.Time // when each pass over the instances began
	kept                      []int64     // per instance, -1 until completed once
	recorded                  []recQuery
	clientCPU                 time.Duration
	daemonCPU                 time.Duration
	steal                     float64 // share of the box's CPU stolen meanwhile
}

// measure drives the probes for dur on two pipelined connections,
// checking every answer, and records the first record requests.
func (pd *pushdown) measure(d *daemon, dur time.Duration, spans *spanLog, record int) (*pdRun, error) {
	run := &pdRun{kept: make([]int64, len(pd.insts))}
	for i := range run.kept {
		run.kept[i] = -1
	}
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	cpu0, _ := d.cpu()
	ccpu0 := clientCPU()
	ht0, hs0 := hostCPU()
	run.start = time.Now()
	deadline := run.start.Add(dur)
	var wg sync.WaitGroup
	errs := make([]error, pushdownConns)
	for c := 0; c < pushdownConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat latencies
			reqID := uint64(c) << 48
			w, err := dialWire(d.wireAddr, pushdownDepth, &lat, spans, &reqID)
			if err != nil {
				errs[c] = err
				stop.Store(true)
				return
			}
			defer w.close()
			var keys int64
			var tt truthTally
			var recorded []recQuery
			buf := make([]uint64, 0, 1<<16)
			survivors := make([]uint64, 0, 1<<16)
			for !stop.Load() && time.Now().Before(deadline) {
				idx := int(next.Add(1)-1) % len(pd.insts)
				if idx == 0 {
					mu.Lock()
					run.passes = append(run.passes, time.Now())
					mu.Unlock()
				}
				inst := pd.insts[idx]
				buf = buf[:0]
				for _, k := range inst.alive {
					buf = append(buf, uint64(k))
				}
				complete := true
				for si := range inst.stages {
					if time.Now().After(deadline) {
						complete = false
						break
					}
					st := &inst.stages[si]
					survivors = survivors[:0]
					err := w.queryAll(st.table.name, st.pred, buf, pushdownBatch, false, func(off int, r *wire.Result) error {
						if len(recorded) < record {
							recorded = append(recorded, recQuery{filter: st.table.name, pred: st.pred,
								keys: append([]uint64(nil), buf[off:off+r.N]...)})
						}
						err := tt.check(r.N, func(i int) bool {
							k := buf[off+i]
							return st.truth[k/64]&(1<<(k%64)) != 0
						}, r.Bit, func(i int) string {
							return fmt.Sprintf("key %d probed in %s", buf[off+i], st.table.name)
						})
						if err != nil {
							return err
						}
						for i := 0; i < r.N; i++ {
							if r.Bit(i) {
								survivors = append(survivors, buf[off+i])
							}
						}
						keys += int64(r.N)
						return nil
					})
					if err != nil {
						errs[c] = err
						stop.Store(true)
						return
					}
					if w.failed > 0 {
						complete = false
					}
					buf, survivors = survivors, buf
				}
				if complete {
					mu.Lock()
					run.kept[idx] = int64(len(buf))
					mu.Unlock()
				}
			}
			mu.Lock()
			run.keys += keys
			run.negatives += tt.negatives
			run.falsePos += tt.falsePos
			run.requests += int64(lat.count())
			run.failedReq += w.failed
			run.lat.merge(&lat)
			run.recorded = append(run.recorded, recorded...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.wall = time.Since(run.start)
	run.clientCPU = clientCPU() - ccpu0
	cpu1, _ := d.cpu()
	run.daemonCPU = cpu1 - cpu0
	ht1, hs1 := hostCPU()
	run.steal = ratio(float64(hs1-hs0), float64(ht1-ht0))
	return run, errors.Join(errs...)
}

// rowsKept sums Eq. 9's numerator and denominator over all instances;
// every instance must have completed at least once.
func (pd *pushdown) rowsKept(run *pdRun) (float64, error) {
	var kept, passed int64
	for i, inst := range pd.insts {
		if run.kept[i] < 0 {
			return 0, fmt.Errorf("instance %d never completed: the measured phase is shorter than one pass", i)
		}
		kept += run.kept[i]
		passed += int64(len(inst.alive))
	}
	return ratio(float64(kept), float64(passed)), nil
}

func runPushdown(e *env) (*report, error) {
	pd, err := preparePushdown(e.seed)
	if err != nil {
		return nil, err
	}
	e.logf("pushdown: %d instances, %d tables prepared", len(pd.insts), len(pd.tables))
	if e.trace {
		return pd.traced(e)
	}
	rep := newReport()
	setups, err := repeatSetup(e, pd.setup)
	if err != nil {
		return nil, err
	}
	d := setups[len(setups)-1].d
	defer d.kill()
	var slices []*pdRun
	for i := 0; i < measureSlices; i++ {
		if i > 0 {
			more, err := timedSetups(e, pd.setup)
			if err != nil {
				return nil, err
			}
			setups = append(setups, more...)
		}
		r, err := pd.measure(d, e.measure/measureSlices, nil, 0)
		if err != nil {
			return nil, err
		}
		slices = append(slices, r)
	}
	run, qsegs := mergePd(slices)
	e.logf("pushdown: measured %d keys in %d passes", run.keys, len(qsegs))
	kept, err := pd.rowsKept(run)
	if err != nil {
		return nil, err
	}
	if err := checkNoGrowth(d); err != nil {
		return nil, err
	}
	s := &e2eRun{
		setup: pd.setup, setups: setups, d: d, qlat: &run.lat, qsegs: qsegs,
		requests: run.requests, failedReq: run.failedReq,
		negatives: run.negatives, falsePos: run.falsePos, slo: pushdownSLO,
	}
	if err := s.finish(e, rep); err != nil {
		return nil, err
	}
	rep.metrics["rows_kept_frac"] = kept
	rep.provenance["steal_frac"] = run.steal
	rep.provenance["daemon_cpu_ns_per_key"] = float64(run.daemonCPU) / float64(run.keys)
	rep.provenance["wall_keys_per_s"] = float64(run.keys) / run.wall.Seconds()
	return rep, nil
}

// mergePd folds a phase's slices into one run and returns its segments:
// the whole passes over the instances of every slice. Every pass does the
// same work, where a time window's share of large and small instances
// varies.
func mergePd(rs []*pdRun) (*pdRun, []segment) {
	t := &pdRun{kept: rs[0].kept}
	var segs []segment
	for _, r := range rs {
		t.keys += r.keys
		t.requests += r.requests
		t.failedReq += r.failedReq
		t.negatives += r.negatives
		t.falsePos += r.falsePos
		t.lat.merge(&r.lat)
		for i, k := range r.kept {
			if k >= 0 {
				t.kept[i] = k
			}
		}
		t.wall += r.wall
		t.clientCPU += r.clientCPU
		t.daemonCPU += r.daemonCPU
		t.steal += r.steal / float64(len(rs))
		segs = append(segs, r.lat.segments(r.passes)...)
	}
	return t, segs
}

// repeatSetup sets the daemon up setupGroup times, stopping all but the
// last, which the measured phase uses.
func repeatSetup(e *env, setup func(*env, ...string) (*setupResult, error)) ([]*setupResult, error) {
	var out []*setupResult
	for i := 0; i < setupGroup; i++ {
		s, err := setup(e)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		e.logf("set-up %d took %.3fs", i, s.seconds)
		if i < setupGroup-1 {
			if err := s.d.stop(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// checkNoGrowth fails the pushdown run if any filter grew: the
// core.PredictEntries sizing must hold without growth.
func checkNoGrowth(d *daemon) error {
	sc, err := d.scrape()
	if err != nil {
		return err
	}
	if g := sc.sum("ccfd_ladder_grows"); g != 0 {
		return fmt.Errorf("pushdown filters grew %v times: the predicted sizing did not hold", g)
	}
	return nil
}

// pushdownRecord is how many query requests the traced run records for
// the in-process replay, and pushdownInsertSample how many preload
// batches feed the insert-path replay.
const (
	pushdownRecord       = 1024
	pushdownInsertSample = 64
)

// traced is the per-layer run: an untraced phase that records requests,
// a traced phase against a daemon with -trace-sample 1, live transport
// replays, then the in-process replay of every layer.
func (pd *pushdown) traced(e *env) (*report, error) {
	rep := newReport()
	spans := newSpanLog()
	half := e.measure / 2
	s0, err := pd.setup(e)
	if err != nil {
		return nil, err
	}
	run0, err := pd.measure(s0.d, half, nil, pushdownRecord)
	if err != nil {
		s0.d.kill()
		return nil, err
	}
	if err := s0.d.stop(); err != nil {
		return nil, err
	}
	s1, err := pd.setup(e, "-trace-sample", "1")
	if err != nil {
		return nil, err
	}
	defer s1.d.kill()
	run1, err := pd.measure(s1.d, half, spans, 0)
	if err != nil {
		return nil, err
	}
	if err := checkNoGrowth(s1.d); err != nil {
		return nil, err
	}
	lv := &liveFigures{
		path:         "tcp_pipelined",
		observed:     float64(run1.wall) * pushdownConns / float64(run1.keys),
		keys:         run1.keys,
		untracedRate: float64(run0.keys) / run0.wall.Seconds(),
		tracedRate:   float64(run1.keys) / run1.wall.Seconds(),
		daemonCPUKey: float64(run0.daemonCPU) / float64(run0.keys),
		daemonCPURow: s0.cpuRow,
		clientCPUKey: float64(run0.clientCPU) / float64(run0.keys),
		scanNs:       pd.scanNs,
		discarded:    s1.tally.discarded,
	}
	if lv.sc, err = s1.d.scrape(); err != nil {
		return nil, err
	}
	defs := make([]filterDef, len(pd.tables))
	var inserts []recInsert
	for i, t := range pd.tables {
		defs[i] = filterDef{name: t.name, create: t.create, keys: t.keys, attrs: t.attrs}
	}
	for b := 0; len(inserts) < pushdownInsertSample && b < pushdownInsertSample; b++ {
		for _, t := range pd.tables {
			lo := b * pushdownBatch
			if lo >= len(t.keys) || len(inserts) == pushdownInsertSample {
				continue
			}
			hi := min(lo+pushdownBatch, len(t.keys))
			inserts = append(inserts, recInsert{filter: t.name, keys: t.keys[lo:hi],
				attrs: t.attrs[lo*t.numAttrs : hi*t.numAttrs], numAttrs: t.numAttrs})
		}
	}
	if err := snapshots(s1.d, defs); err != nil {
		return nil, err
	}
	tcp, pipe, httpNs, err := transports(s1.d, run0.recorded)
	if err != nil {
		return nil, err
	}
	if err := s1.d.stop(); err != nil {
		return nil, err
	}
	lc, err := replayLayers(e, &layerInput{filters: defs, queries: run0.recorded, inserts: inserts}, spans)
	if err != nil {
		return nil, err
	}
	rep.attempted = run0.requests + run1.requests
	rep.failed = run0.failedReq + run1.failedReq
	return rep, layerMetrics(e, "pushdown", rep, lc, lv, tcp, pipe, httpNs, spans)
}
