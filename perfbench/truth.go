package main

import "time"

// truthTally counts the probes ground truth says must answer false, and
// how many of those the daemon answered true.
type truthTally struct{ negatives, falsePos int64 }

// check compares n answers with ground truth. A key that must be present
// but is answered false is a false negative: the run fails.
func (t *truthTally) check(n int, truth, got func(i int) bool, what func(i int) string) error {
	for i := 0; i < n; i++ {
		tr, g := truth(i), got(i)
		if tr && !g {
			return violationf("false negative: %s answered false", what(i))
		}
		if !tr {
			t.negatives++
			if g {
				t.falsePos++
			}
		}
	}
	return nil
}

// schedule is an open loop's timetable: request k is due at start +
// k·period, whatever happened to the requests before it.
type schedule struct {
	start  time.Time
	period time.Duration
}

func (s schedule) due(k int64) time.Time { return s.start.Add(time.Duration(k) * s.period) }

// openLoopSample records one open-loop request: its latency runs from
// the due time, so a stall is charged to every request it delays, and
// the generator's own lateness (send minus due) is kept apart.
func openLoopSample(lat, service, lateness *latencies, due, sent, done time.Time, units int) {
	lateness.add(sent.Sub(due))
	lat.addUnits(done.Sub(due), units)
	service.addUnits(done.Sub(sent), units)
}
