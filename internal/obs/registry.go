package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name=value pair attached to a metric series. Labels are
// rendered once at registration time; the hot-path handles never see
// them.
type Label struct {
	Key, Value string
}

// series is one exposed time series: a label set plus exactly one of a
// counter, gauge, gauge callback, or histogram.
type series struct {
	labels string  // pre-rendered `k1="v1",k2="v2"` (no braces), "" for none
	pairs  []Label // the structured form, for Unregister matching
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry names metric handles for exposition. Registration replaces a
// series with an identical name and label set (PUT semantics for
// re-created filters), and Unregister drops every series carrying a
// given label pair (filter deletion). All methods are safe for
// concurrent use; none is a hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels renders a label set in the given order with values
// escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register installs s under name, replacing any series with the same
// label set, and panics on a name registered with a different type —
// that is a programming error caught at startup, never in serving.
func (r *Registry) register(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	for i, old := range f.series {
		if old.labels == s.labels {
			f.series[i] = s
			return
		}
	}
	f.series = append(f.series, s)
}

// RegisterCounter exposes an existing counter handle — the plumbed-into-
// the-hot-path form used by internal/shard and internal/store.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) {
	r.register(name, help, "counter", &series{labels: renderLabels(labels), pairs: labels, c: c})
}

// RegisterGauge exposes an existing gauge handle.
func (r *Registry) RegisterGauge(name, help string, g *Gauge, labels ...Label) {
	r.register(name, help, "gauge", &series{labels: renderLabels(labels), pairs: labels, g: g})
}

// RegisterGaugeFunc exposes a gauge computed at scrape time — the right
// shape for occupancy and ladder-depth numbers already maintained by
// Stats, sampled when someone asks instead of on the write path.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", &series{labels: renderLabels(labels), pairs: labels, gf: fn})
}

// RegisterHistogram exposes an existing histogram handle.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), pairs: labels, h: h})
}

// Counter allocates, registers and returns a new counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := new(Counter)
	r.RegisterCounter(name, help, c, labels...)
	return c
}

// Gauge allocates, registers and returns a new gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := new(Gauge)
	r.RegisterGauge(name, help, g, labels...)
	return g
}

// Histogram allocates, registers and returns a new histogram (see
// NewHistogram for scale and bounds).
func (r *Registry) Histogram(name, help string, scale float64, bounds []int64, labels ...Label) *Histogram {
	h := NewHistogram(scale, bounds)
	r.RegisterHistogram(name, help, h, labels...)
	return h
}

// Unregister removes every series whose label set contains key=value
// (e.g. key="filter", value=name when a filter is dropped). Empty
// families are removed with their help text.
func (r *Registry) Unregister(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range r.families {
		kept := f.series[:0]
		for _, s := range f.series {
			if !pairsContain(s.pairs, key, value) {
				kept = append(kept, s)
			}
		}
		f.series = kept
		if len(f.series) == 0 {
			delete(r.families, name)
		}
	}
}

func pairsContain(pairs []Label, key, value string) bool {
	for _, l := range pairs {
		if l.Key == key && l.Value == value {
			return true
		}
	}
	return false
}

// WritePrometheus writes every registered family in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, each with
// its HELP and TYPE line, histograms expanded into cumulative _bucket
// series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.WritePrometheusOpts(w, false)
}

// WritePrometheusOpts is WritePrometheus with exemplar rendering:
// when withExemplars is set, histogram buckets that carry an exemplar
// gain an OpenMetrics-style ` # {trace_id="…"} value timestamp`
// suffix. Exemplar suffixes are not part of text format 0.0.4, so the
// default scrape never emits them — they're opt-in via
// /metrics?exemplars=1 for tooling that understands them.
func (r *Registry) WritePrometheusOpts(w io.Writer, withExemplars bool) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSeries(bw, f.name, s.labels, "", formatUint(s.c.Value()))
			case s.g != nil:
				writeSeries(bw, f.name, s.labels, "", formatFloat(s.g.Value()))
			case s.gf != nil:
				writeSeries(bw, f.name, s.labels, "", formatFloat(s.gf()))
			case s.h != nil:
				writeHistogram(bw, f.name, s.labels, s.h, withExemplars)
			}
		}
	}
	return bw.Flush()
}

// writeSeries writes one sample line: name{labels,extra} value.
func writeSeries(w io.Writer, name, labels, extra, value string) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %s\n", name, value)
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, extra, value)
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	default:
		fmt.Fprintf(w, "%s{%s,%s} %s\n", name, labels, extra, value)
	}
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram, withExemplars bool) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			// 12 significant digits: enough for any real bound, trims
			// float artifacts like 1000*1e-9 = 1.0000000000000002e-06.
			le = strconv.FormatFloat(float64(h.bounds[i])*h.scale, 'g', 12, 64)
		}
		line := formatUint(cum)
		if withExemplars {
			if e, ok := h.exemplar(i); ok {
				line += fmt.Sprintf(" # {trace_id=\"%016x%016x\"} %s %s",
					e.hi, e.lo,
					formatFloat(float64(e.val)*h.scale),
					formatFloat(float64(e.ts)/1e9))
			}
		}
		writeSeries(w, name+"_bucket", labels, `le="`+le+`"`, line)
	}
	writeSeries(w, name+"_sum", labels, "", formatFloat(float64(h.Sum())*h.scale))
	writeSeries(w, name+"_count", labels, "", formatUint(h.Count()))
}

func formatUint(v uint64) string   { return strconv.FormatUint(v, 10) }
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler returns the GET /metrics endpoint over this registry.
// ?exemplars=1 opts in to exemplar-annotated histogram buckets.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheusOpts(w, req.URL.Query().Get("exemplars") == "1")
	})
}
