package main

import (
	"fmt"
	"time"
)

// A run sets a daemon up setupGroup times before the measured phase, the
// last of them serving it, and setupGroup times after it; pushdown and
// json-small also split the phase into measureSlices slices with a group
// between each two. The host's speed drifts over tens of seconds, so the
// groups sample it at several times. setup_s is the median of all set-ups;
// each set-up's preload is a segment of the insert figures (see
// summarise).
const (
	setupGroup    = 3
	measureSlices = 3
)

// restartRepeats is how many restarts restart_ready_s is the median of.
const restartRepeats = 5

// queryWindow is the length of the json-small phase's segments.
const queryWindow = 2 * time.Second

// e2eRun carries what a measured phase saw into the end-to-end metrics
// every workload reports.
type e2eRun struct {
	setup     func(*env, ...string) (*setupResult, error)
	setups    []*setupResult
	d         *daemon    // the measured daemon, still running
	qlat      *latencies // per query request, from send (or due time)
	qsegs     []segment  // the measured phase's segments of qlat
	requests  int64      // query requests due
	failedReq int64      // query requests that failed or were never sent
	negatives int64      // probes ground truth says must be false
	falsePos  int64      // of those, answered true
	slo       time.Duration
	// insertRows is the rows acked in the measured phase, in the segments
	// isegs; 0 takes the insert figures from the set-ups' preloads.
	insertRows int64
	ilat       *latencies
	isegs      []segment
	insFailed  int64 // failed rows in the measured phase
	// restart, when set, replaces the in-memory restart: it drains d,
	// restarts on the same data and verifies it, returning the seconds
	// from exec to /readyz 200.
	restart func() (float64, error)
}

// finish records the end-to-end metrics, stops the daemon and runs the
// set-ups that follow the measured phase.
func (r *e2eRun) finish(e *env, rep *report) error {
	n := r.qlat.count()
	if p := highestPercentile(n); p < 9900 {
		return fmt.Errorf("%d query requests are too few for a p99 (need 1000)", n)
	}
	if len(r.qsegs) == 0 {
		return fmt.Errorf("the measured phase completed no whole segment")
	}
	m := rep.metrics
	if r.insertRows > 0 {
		if p := highestPercentile(r.ilat.count()); p < 9900 {
			return fmt.Errorf("%d insert requests are too few for a p99 (need 1000)", r.ilat.count())
		}
		m["insert_rows_per_s"], m["insert_p50_us"], m["insert_p99_us"] = summarise(r.isegs, r.ilat)
		rep.attempted += r.insertRows + r.insFailed
		rep.failed += r.insFailed
	}
	m["query_keys_per_s"], m["query_p50_us"], m["query_p99_us"] = summarise(r.qsegs, r.qlat)
	logSegments(e, "query", r.qsegs)
	if r.insertRows > 0 {
		logSegments(e, "insert", r.isegs)
	}
	m["slo_miss_frac"] = ratio(float64(r.qlat.over(r.slo)+int(r.failedReq)), float64(r.requests))
	m["fp_frac"] = ratio(float64(r.falsePos), float64(r.negatives))
	rep.attempted += r.requests
	rep.failed += r.failedReq

	sc, err := r.d.scrape()
	if err != nil {
		return err
	}
	m["bits_per_row"] = ratio(sc.sum("ccfd_filter_size_bits"), sc.sum("ccfd_filter_rows"))
	if m["daemon_peak_rss_mb"], err = r.d.peakRSSMiB(); err != nil {
		return err
	}
	rep.provenance["probe_engine"] = sc.label("ccfd_probe_engine_info", "engine")
	rep.provenance["daemon_http_query_p99_us"] = sc.quantile("ccfd_http_request_seconds", 0.99, "endpoint", "query") * 1e6
	rep.provenance["query_requests"] = n
	rep.provenance["tail_percentile"] = float64(highestPercentile(n)) / 100

	if r.restart != nil {
		if m["restart_ready_s"], err = r.restart(); err != nil {
			return err
		}
	} else if m["restart_ready_s"], err = r.restartEmpty(e); err != nil {
		return err
	}

	more, err := timedSetups(e, r.setup)
	if err != nil {
		return err
	}
	r.setups = append(r.setups, more...)
	var setupS []float64
	var preloads []segment
	var pooled latencies
	for _, s := range r.setups {
		setupS = append(setupS, s.seconds)
		preloads = append(preloads, segment{units: float64(s.tally.accepted), seconds: s.load.Seconds(), ns: s.insLat.ns})
		pooled.merge(&s.insLat)
		rep.attempted += s.tally.rows + s.tally.failedRows
		rep.failed += s.tally.failedRows
	}
	m["setup_s"] = median(setupS)
	if r.insertRows == 0 {
		logSegments(e, "preload", preloads)
		m["insert_rows_per_s"], m["insert_p50_us"], m["insert_p99_us"] = summarise(preloads, &pooled)
	}
	rep.provenance["error_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	return nil
}

// logSegments prints each segment's rate and p50 to standard error.
func logSegments(e *env, what string, segs []segment) {
	var rates, p50s []float64
	for _, s := range segs {
		rates = append(rates, ratio(s.units, s.seconds))
		p50s = append(p50s, percentileOf(s.ns, 5000))
	}
	e.logf("%s segments: rates %.0f p50s %.1f", what, rates, p50s)
}

// timedSetups sets a daemon up setupGroup times, stopping each.
func timedSetups(e *env, setup func(*env, ...string) (*setupResult, error)) ([]*setupResult, error) {
	var out []*setupResult
	for i := 0; i < setupGroup; i++ {
		s, err := setup(e)
		if err != nil {
			return nil, err
		}
		e.logf("set-up took %.3fs", s.seconds)
		out = append(out, s)
		if err := s.d.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// restartEmpty stops the in-memory daemon and times exec to ready of
// fresh ones: an in-memory daemon restarts empty.
func (r *e2eRun) restartEmpty(e *env) (float64, error) {
	if err := r.d.stop(); err != nil {
		return 0, err
	}
	var restarts []float64
	for i := 0; i < restartRepeats; i++ {
		d, err := startDaemon(e)
		if err != nil {
			return 0, err
		}
		restarts = append(restarts, d.ready.Sub(d.exec).Seconds())
		if err := d.stop(); err != nil {
			return 0, err
		}
	}
	return median(restarts), nil
}
