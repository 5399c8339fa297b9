package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// The percentile rule: report the highest percentile that has at least
// ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {9, 0}, {19, 0}, {20, 5000}, {99, 5000}, {100, 9000},
		{999, 9000}, {1000, 9900}, {9999, 9900}, {10000, 9990}, {100000, 9999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// At the chosen percentile exactly ten samples (or more) lie beyond
	// the reported value.
	var l latencies
	for i := 1; i <= 1000; i++ {
		l.add(time.Duration(i) * time.Microsecond)
	}
	if got := l.percentile(9900); got != 990 {
		t.Errorf("p99 of 1..1000us = %v, want 990", got)
	}
	if got := l.percentile(5000); got != 500 {
		t.Errorf("p50 of 1..1000us = %v, want 500", got)
	}
}

// Each layer's delta is its difference from the layer below, a beside
// step adds to the stack, and the deltas plus the residue give back
// what the client observed.
func TestLedgerDeltasAndResidue(t *testing.T) {
	steps := []step{
		{"core", 60, true},
		{"core.ladder", 70, true},
		{"shard", 95, true},
		{"server (binary)", 130, true},
		{"wire (client codec)", 5, false},
		{"server.tcp", 400, true},
	}
	rows, residue := ledger(steps, 450)
	want := []float64{60, 10, 25, 35, 5, 265}
	sum := residue
	for i, r := range rows {
		if math.Abs(r.delta-want[i]) > 1e-9 {
			t.Errorf("%s delta = %v, want %v", r.layer, r.delta, want[i])
		}
		sum += r.delta
	}
	if rows[4].cumulative != 135 {
		t.Errorf("beside step cumulative = %v, want 135", rows[4].cumulative)
	}
	if residue != 50 {
		t.Errorf("residue = %v, want 50", residue)
	}
	if math.Abs(sum-450) > 1e-9 {
		t.Errorf("deltas plus residue = %v, want the observed 450", sum)
	}
	// A layer that measures faster than the one below shows a negative
	// delta rather than being hidden.
	rows, residue = ledger([]step{{"a", 100, true}, {"b", 90, true}}, 80)
	if rows[1].delta != -10 || residue != -10 {
		t.Errorf("negative delta/residue = %v/%v, want -10/-10", rows[1].delta, residue)
	}
}

func TestCrossCheckFlagsBeyondFactor(t *testing.T) {
	if _, flagged := crossCheck("x", 100, 90, 3); flagged {
		t.Error("within factor flagged")
	}
	if _, flagged := crossCheck("x", 400, 100, 3); !flagged {
		t.Error("4x over not flagged")
	}
	if _, flagged := crossCheck("x", 10, 100, 3); !flagged {
		t.Error("10x under not flagged")
	}
}

// Self time is a span's duration minus the union of its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "req", Parent: -1, Start: 0, End: 100},
		{Name: "rtt", Parent: 0, Start: 10, End: 30},
		{Name: "rtt", Parent: 0, Start: 20, End: 50}, // overlaps the one before
		{Name: "decode", Parent: 0, Start: 70, End: 80},
		{Name: "open", Parent: 0, Start: 90, End: -1}, // never closed: ignored
	}
	self := selfTimes(spans)
	if self["req"] != 50 {
		t.Errorf("req self = %d, want 50", self["req"])
	}
	if self["rtt"] != 50 || self["decode"] != 10 {
		t.Errorf("child self = %v", self)
	}
}

// The ground-truth checker rejects an injected false negative and counts
// false positives among the keys that must be absent.
func TestTruthCheckRejectsFalseNegative(t *testing.T) {
	truth := []bool{true, false, true, false, false}
	got := []bool{true, true, true, false, false}
	var tt truthTally
	name := func(i int) string { return fmt.Sprintf("key %d", i) }
	err := tt.check(len(truth), func(i int) bool { return truth[i] }, func(i int) bool { return got[i] }, name)
	if err != nil {
		t.Fatalf("clean answers rejected: %v", err)
	}
	if tt.negatives != 3 || tt.falsePos != 1 {
		t.Errorf("negatives/falsePos = %d/%d, want 3/1", tt.negatives, tt.falsePos)
	}
	got[2] = false // a present key dropped
	err = tt.check(len(truth), func(i int) bool { return truth[i] }, func(i int) bool { return got[i] }, name)
	var v *violation
	if !errors.As(err, &v) || !strings.Contains(err.Error(), "key 2") {
		t.Fatalf("injected false negative gave %v, want a violation naming key 2", err)
	}
}

// An open-loop request is timed from when it was due, not from when the
// generator got round to sending it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	s := schedule{start: time.Unix(100, 0), period: 500 * time.Microsecond}
	due := s.due(4)
	if want := time.Unix(100, 0).Add(2 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("due(4) = %v, want %v", due, want)
	}
	var lat, service, lateness latencies
	sent := due.Add(5 * time.Millisecond) // the generator stalled
	done := sent.Add(time.Millisecond)
	openLoopSample(&lat, &service, &lateness, due, sent, done, 64)
	if got := lat.percentile(5000); got != 6000 {
		t.Errorf("latency = %vus, want 6000 (from the due time)", got)
	}
	if got := service.percentile(5000); got != 1000 {
		t.Errorf("service = %vus, want 1000", got)
	}
	if got := lateness.percentile(5000); got != 5000 {
		t.Errorf("lateness = %vus, want 5000", got)
	}
}

func TestMetricNameValidity(t *testing.T) {
	for _, c := range []struct {
		name, unit string
		ok         bool
	}{
		{"query_p99_us", "us", true},
		{"core.ladder.delta_ns_per_key", "ns", true},
		{"query_keys_per_s", "keys/s", true},
		{"9lives", "%", true},
		{"_leading", "ns", false},
		{"has space", "ns", false},
		{"query_p99_µs", "us", false},
		{strings.Repeat("a", 65), "ns", false},
		{"ok", "", false},
		{"ok", "µs", false},
		{"ok", strings.Repeat("u", 17), false},
	} {
		if got := validMetricName(c.name, c.unit); got != c.ok {
			t.Errorf("validMetricName(%q, %q) = %v, want %v", c.name, c.unit, got, c.ok)
		}
	}
	cat, err := loadCatalogue("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.endToEnd) == 0 || len(cat.perLayer) == 0 {
		t.Fatal("BENCHMARK.json names no metrics")
	}
	// A measured value missing from the run is an error, not a silent
	// omission.
	if _, err := metricsFor(cat.endToEnd, map[string]float64{}); err == nil {
		t.Error("metricsFor accepted a run that measured nothing")
	}
}

func TestWindowsFastQuartile(t *testing.T) {
	start := time.Unix(0, 0)
	// Four one-second windows of 64-key requests; slow ones complete half
	// as many requests at 10ms each. The summary follows the faster
	// quarter of the windows.
	build := func(slow ...int) *latencies {
		var l latencies
		for w := 0; w < 4; w++ {
			n, d := 2000, 100*time.Microsecond
			for _, s := range slow {
				if s == w {
					n, d = 1000, 10*time.Millisecond
				}
			}
			for i := 0; i < n; i++ {
				l.ns = append(l.ns, int64(d))
				l.end = append(l.end, start.Add(time.Duration(w)*time.Second+time.Duration(i)*time.Second/time.Duration(n)))
				l.units = append(l.units, 64)
			}
		}
		return &l
	}
	summary := func(l *latencies, dur time.Duration) (float64, float64, float64) {
		return summarise(l.windows(start, dur, time.Second), l)
	}
	rate, p50, p99 := summary(build(1, 2), 4*time.Second)
	if rate != 128000 || p50 != 100 || p99 != 100 {
		t.Errorf("two slow windows: %v keys/s, p50 %vus, p99 %vus; want 128000, 100, 100", rate, p50, p99)
	}
	// With three windows slow the quartiles interpolate: rates sorted
	// 64000, 64000, 64000, 128000 have their upper quartile a quarter of
	// the way from the third to the fourth.
	rate, p50, _ = summary(build(0, 1, 2), 4*time.Second)
	if rate != 80000 || p50 != 100+0.75*(10000-100) {
		t.Errorf("three slow windows: %v keys/s, p50 %vus; want 80000, %v", rate, p50, 100+0.75*(10000-100))
	}
	// Windows too thin for a p99 leave the latencies to the whole phase.
	var l latencies
	for i := 0; i < 100; i++ {
		l.ns = append(l.ns, int64(i+1)*1000)
		l.end = append(l.end, start.Add(time.Duration(i)*40*time.Millisecond))
		l.units = append(l.units, 1)
	}
	_, p50, p99 = summary(&l, 4*time.Second)
	if p50 != 50 || p99 != 99 {
		t.Errorf("thin windows: p50 %vus, p99 %vus; want the whole phase's 50, 99", p50, p99)
	}
}

func TestQuartile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range []float64{1, 2, 3, 4} {
		if got := quartile(xs, q); got != want {
			t.Errorf("quartile %d = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := quartile(nil, 3); got != 0 {
		t.Errorf("quartile of nothing = %v, want 0", got)
	}
}

func TestPromParsingAndQuantile(t *testing.T) {
	text := `# HELP x y
ccfd_filter_rows{filter="a"} 10
ccfd_filter_rows{filter="b"} 30
ccfd_trace_phase_seconds_bucket{phase="decode",le="0.001"} 50
ccfd_trace_phase_seconds_bucket{phase="decode",le="0.002"} 100
ccfd_trace_phase_seconds_bucket{phase="decode",le="+Inf"} 100
`
	sc, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.sum("ccfd_filter_rows"); got != 40 {
		t.Errorf("sum = %v, want 40", got)
	}
	if got := sc.sum("ccfd_filter_rows", "filter", "b"); got != 30 {
		t.Errorf("labelled sum = %v, want 30", got)
	}
	if got := sc.quantile("ccfd_trace_phase_seconds", 0.75, "phase", "decode"); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("p75 = %v, want 0.0015", got)
	}
}
