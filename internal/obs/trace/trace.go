// Package trace is ccfd's request-scoped tracing layer: a
// dependency-free span tracer designed to ride the same hot paths the
// packed engine keeps at zero allocations.
//
// The model is deliberately small. A request carries a *Req — a pooled,
// fixed-capacity span buffer — whose spans mark phase boundaries (JSON
// decode, per-shard probe, WAL append, group-commit fsync wait,
// response encode). Spans are plain value structs with a fixed
// attribute array: starting and ending one is a few stores and a clock
// read, never an allocation or a lock. A completed span stays in its
// request's buffer and nowhere else; only whole traces that are slow or
// sampled are copied, into the flight recorder for GET /debug/traces.
//
// Trace identity is W3C: StartRequest accepts an incoming `traceparent`
// header and Traceparent emits one, so a future router tier composes
// with no translation. Background work (grows, folds, checkpoints,
// recovery) emits spans through StartBackground, inheriting the
// originating request's trace ID when one exists, so a fold stalling
// writers shows up in the same timeline as the insert that caused it.
package trace

import (
	"sync/atomic"
	"time"
)

// ID is a 128-bit W3C trace ID.
type ID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is the invalid all-zero trace ID.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the 32-hex-digit form used in traceparent and logs.
func (id ID) String() string {
	var b [32]byte
	putHex(b[:16], id.Hi)
	putHex(b[16:], id.Lo)
	return string(b[:])
}

// Phase identifies what a span measures. Phases are a closed enum (not
// free-form strings) so spans stay fixed-size and comparisons are
// integer compares on the hot path.
type Phase uint8

// The span catalogue. Request phases are children of PhaseRequest;
// background phases are roots of their own traces (possibly sharing a
// trace ID with the request that triggered them).
const (
	PhaseRequest    Phase = iota // whole HTTP request, root span
	PhaseDecode                  // request decode, JSON or binary frame
	PhaseShardProbe              // one shard group's batched probe
	PhaseApply                   // in-memory insert apply
	PhaseWALAppend               // WAL record encode + buffered write
	PhaseFsyncWait               // group-commit fsync wait
	PhaseEncode                  // response encode, JSON or binary frame
	PhaseGrow                    // online shard growth
	PhaseFold                    // background ladder fold
	PhaseCheckpoint              // background checkpoint
	PhaseRecovery                // boot WAL/checkpoint recovery
	PhaseQueue                   // admission-control queue wait
	numPhases
)

var phaseNames = [numPhases]string{
	"request", "decode", "shard_probe", "apply",
	"wal_append", "fsync_wait", "encode", "grow", "fold",
	"checkpoint", "recovery", "queue",
}

// Phases returns every phase in the catalogue, for metric registration.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for p := Phase(0); p < numPhases; p++ {
		out[p] = p
	}
	return out
}

// String returns the snake_case phase name used in /debug/traces and
// metric labels.
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// AttrKey identifies a span attribute. Closed enum for the same
// fixed-size reason as Phase.
type AttrKey uint8

// Attribute keys.
const (
	AttrNone    AttrKey = iota
	AttrShard           // shard index
	AttrKeys            // keys probed
	AttrRows            // rows inserted
	AttrLevels          // ladder level-walk depth
	AttrSeq             // WAL sequence number
	AttrBytes           // bytes written/encoded
	AttrStatus          // HTTP status code
	AttrFilters         // filters touched (recovery)
	AttrRecords         // WAL records replayed
	numAttrKeys
)

var attrKeyNames = [numAttrKeys]string{
	"", "shard", "keys", "rows", "levels", "seq", "bytes", "status",
	"filters", "records",
}

// String returns the attribute key name.
func (k AttrKey) String() string {
	if k < numAttrKeys {
		return attrKeyNames[k]
	}
	return "unknown"
}

// Attr is one key/value span attribute.
type Attr struct {
	Key AttrKey
	Val int64
}

// maxAttrs bounds attributes per span: the widest span (shard_probe)
// sets three, and TestCallSiteAttrsSurvive lists every call site's set.
// A Span is 104 bytes at three.
const maxAttrs = 3

// Span is one completed or in-flight phase measurement. It is a plain
// value struct — fixed size, no pointers — so the recorder can copy it
// without allocation and the GC never scans trace storage.
type Span struct {
	TraceHi uint64 // trace ID
	TraceLo uint64
	ID      uint64 // span ID (unique within the process)
	Parent  uint64 // parent span ID; 0 for roots
	Start   int64  // wall-clock start, unix nanoseconds
	Dur     int64  // duration in nanoseconds; 0 while in flight
	Phase   Phase
	N       uint8 // attributes in use
	Attrs   [maxAttrs]Attr
}

// Trace returns the span's trace ID.
func (s *Span) Trace() ID { return ID{Hi: s.TraceHi, Lo: s.TraceLo} }

// Attr returns the value of key k and whether it is set.
func (s *Span) Attr(k AttrKey) (int64, bool) {
	for i := uint8(0); i < s.N; i++ {
		if s.Attrs[i].Key == k {
			return s.Attrs[i].Val, true
		}
	}
	return 0, false
}

// now is the span clock. Wall clock (not monotonic-only) so spans from
// different processes line up in one timeline; durations still come
// from subtracting two readings on the same machine.
func now() int64 { return time.Now().UnixNano() }

// splitmix64 is the ID mixer: one multiply-shift chain per ID, no
// global lock, no crypto/rand dependency on the request path.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// idCounter feeds splitmix64 so IDs are unique per process even when
// generated in the same nanosecond.
var idCounter atomic.Uint64

// newSpanID returns a nonzero 64-bit span ID.
func newSpanID(seed uint64) uint64 {
	for {
		if id := splitmix64(seed ^ idCounter.Add(1)); id != 0 {
			return id
		}
	}
}

// newTraceID returns a nonzero 128-bit trace ID.
func newTraceID(seed uint64) ID {
	c := idCounter.Add(2)
	id := ID{Hi: splitmix64(seed ^ c), Lo: splitmix64(seed ^ (c + 1))}
	if id.IsZero() {
		id.Lo = 1
	}
	return id
}

// Traceparent handling: the strict 55-byte single form
// "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>".

// FlagSampled is the traceparent sampled flag (bit 0).
const FlagSampled = 0x01

// ParseTraceparent parses a W3C traceparent header value. It accepts
// only version 00 in canonical lowercase-hex form and rejects the
// all-zero trace and parent IDs, per the spec.
func ParseTraceparent(s string) (id ID, parent uint64, flags uint8, ok bool) {
	if len(s) != 55 || s[0] != '0' || s[1] != '0' ||
		s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return ID{}, 0, 0, false
	}
	hi, ok1 := parseHex(s[3:19])
	lo, ok2 := parseHex(s[19:35])
	par, ok3 := parseHex(s[36:52])
	fl, ok4 := parseHex(s[53:55])
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return ID{}, 0, 0, false
	}
	id = ID{Hi: hi, Lo: lo}
	if id.IsZero() || par == 0 {
		return ID{}, 0, 0, false
	}
	return id, par, uint8(fl), true
}

// FormatTraceparent renders a version-00 traceparent value.
func FormatTraceparent(id ID, parent uint64, flags uint8) string {
	var b [55]byte
	b[0], b[1] = '0', '0'
	b[2], b[35], b[52] = '-', '-', '-'
	putHex(b[3:19], id.Hi)
	putHex(b[19:35], id.Lo)
	putHex(b[36:52], parent)
	const digits = "0123456789abcdef"
	b[53] = digits[flags>>4]
	b[54] = digits[flags&0xf]
	return string(b[:])
}

func putHex(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

func parseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}
