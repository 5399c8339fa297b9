package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share req; parent indexes the span that caused this one (-1 = root).
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int    `json:"units"` // keys or rows the call handled
}

// spanLog keeps spans in memory until the run ends. It is safe for
// concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, req uint64, parent int32, units int) int32 {
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1, Units: units})
	return int32(len(l.spans) - 1)
}

// end closes span i.
func (l *spanLog) end(i int32) {
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover (overlapping
// children count once).
func selfTimes(spans []span) map[string]int64 {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += (s.End - s.Start) - covered(children[int32(i)], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
