package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder lists, in per-ten-thousand, the percentiles a timing
// may be reported at, lowest first.
var percentileLadder = []int{5000, 9000, 9900, 9990, 9999}

// rankOf is the nearest-rank index (1-based) of percentile p (per ten
// thousand) among n samples.
func rankOf(n, p int) int {
	r := (n*p + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// highestPercentile returns the highest percentile on percentileLadder
// (per ten thousand) that has at least ten samples beyond it among n
// samples, or 0 when even the median has fewer.
func highestPercentile(n int) int {
	best := 0
	for _, p := range percentileLadder {
		if n-rankOf(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// latencies collects per-request timings, each stamped with when it
// completed and how many keys or rows it carried.
type latencies struct {
	ns    []int64
	end   []time.Time
	units []int32
}

func (l *latencies) add(d time.Duration) { l.addUnits(d, 0) }

func (l *latencies) addUnits(d time.Duration, units int) {
	l.ns = append(l.ns, int64(d))
	l.end = append(l.end, time.Now())
	l.units = append(l.units, int32(units))
}

func (l *latencies) merge(o *latencies) {
	l.ns = append(l.ns, o.ns...)
	l.end = append(l.end, o.end...)
	l.units = append(l.units, o.units...)
}

func (l *latencies) count() int { return len(l.ns) }

// percentile returns percentile p (per ten thousand) in microseconds by
// nearest rank.
func (l *latencies) percentile(p int) float64 {
	return percentileOf(l.ns, p)
}

func percentileOf(ns []int64, p int) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rankOf(len(s), p)-1]) / 1e3
}

// over counts samples strictly above limit.
func (l *latencies) over(limit time.Duration) int {
	n := 0
	for _, v := range l.ns {
		if v > int64(limit) {
			n++
		}
	}
	return n
}

func (l *latencies) sum() time.Duration {
	var s int64
	for _, v := range l.ns {
		s += v
	}
	return time.Duration(s)
}

// segment is one stretch of a measured phase, a time window or an
// ingest cycle: the keys or rows it completed, its length, and its
// request latencies.
type segment struct {
	units   float64
	seconds float64
	ns      []int64
}

// summarise reports a phase's segments the way every end-to-end rate and
// latency is reported: the upper quartile of the segments' rates and the
// lower quartiles of their p50 and p99 latencies. The host this runs on
// is shared, and for tens of seconds at a time outside load can slow it
// by half or more; that only ever slows the segments it falls in, so the
// faster quarter of the segments is the program's own speed, the least
// disturbed. A segment with too few samples for its p99 (see
// highestPercentile) leaves the latencies to whole, the percentiles over
// every sample.
func summarise(segs []segment, whole *latencies) (perSec, p50, p99 float64) {
	var rates, p50s, p99s []float64
	perSegment := true
	for _, s := range segs {
		rates = append(rates, ratio(s.units, s.seconds))
		if highestPercentile(len(s.ns)) < 9900 {
			perSegment = false
		}
		p50s = append(p50s, percentileOf(s.ns, 5000))
		p99s = append(p99s, percentileOf(s.ns, 9900))
	}
	if !perSegment {
		return quartile(rates, 3), whole.percentile(5000), whole.percentile(9900)
	}
	return quartile(rates, 3), quartile(p50s, 1), quartile(p99s, 1)
}

// windows splits [start, start+dur) into equal windows of about w each
// and returns the samples' segments in them.
func (l *latencies) windows(start time.Time, dur, w time.Duration) []segment {
	n := max(int(dur/w), 1)
	bounds := make([]time.Time, n+1)
	for k := range bounds {
		bounds[k] = start.Add(time.Duration(k) * dur / time.Duration(n))
	}
	return l.segments(bounds)
}

// segments splits the samples by completion time at bounds: segment k
// holds those that completed in [bounds[k], bounds[k+1]).
func (l *latencies) segments(bounds []time.Time) []segment {
	if len(bounds) < 2 {
		return nil
	}
	segs := make([]segment, len(bounds)-1)
	for k := range segs {
		segs[k].seconds = bounds[k+1].Sub(bounds[k]).Seconds()
	}
	for i, t := range l.end {
		k := sort.Search(len(bounds), func(j int) bool { return bounds[j].After(t) }) - 1
		if k < 0 || k >= len(segs) {
			continue
		}
		segs[k].units += float64(l.units[i])
		segs[k].ns = append(segs[k].ns, l.ns[i])
	}
	return segs
}

// quartile returns quartile q (1 lower, 2 median, 3 upper) of xs,
// interpolating linearly between the nearest ranks; 0 for none.
func quartile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(q) / 4 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// median of a small sample; 0 for none.
func median(xs []float64) float64 { return quartile(xs, 2) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bucket is one cumulative histogram bucket: count of samples <= le.
type bucket struct {
	le    float64
	count float64
}

// histQuantile interpolates quantile q in (0,1) from cumulative
// buckets, Prometheus-style. The +Inf bucket clamps to the last finite
// bound. It returns 0 for an empty histogram.
func histQuantile(bs []bucket, q float64) float64 {
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	prevLE, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevCount)/(b.count-prevCount)
		}
		prevLE, prevCount = b.le, b.count
	}
	return prevLE
}
