// Package wire is ccfd's binary protocol: a dependency-free,
// length-prefixed frame format for the daemon's hottest request shapes
// (batched key queries and inserts), built so the serving path can stop
// paying the JSON tax on every key.
//
// The design goals, in order:
//
//  1. Zero-copy decode. Key batches travel as raw 8-byte little-endian
//     words, padded so the key block is 8-byte aligned within the
//     payload. A reader that places the payload at an 8-aligned base
//     (see Buffer) gets the batch as a []uint64 aliasing the receive
//     buffer — no per-key parse, no []string or []interface{} round
//     trip, no allocation — and feeds it straight into the shard
//     layer's *Into entry points.
//  2. Dense responses. Query results are packed bitmaps: 1 bit per key
//     instead of a JSON bool array (≈ 48× smaller at batch 1024).
//     Insert outcomes are one status byte per row, elided entirely when
//     every row landed.
//  3. Typed errors. Error frames carry a machine-readable kind (the
//     HTTP layer's status vocabulary: degraded, rate-limited, too
//     large, deadline …) so clients switch on an enum, not a string.
//
// Frame layout (all integers little-endian):
//
//	offset size field
//	0      4    magic  0x57464343 ("CCFW")
//	4      1    version (1)
//	5      1    opcode
//	6      2    reserved, must be zero
//	8      4    payload length
//	12     n    payload
//
// Varints are unsigned LEB128 (encoding/binary's Uvarint). Strings are
// varint length + bytes. See the README's "Wire protocol" section for
// the payload grammar of each opcode.
//
// The decoder never trusts a length field: every read is bounds-checked
// against the payload and every count is checked against the bytes that
// must follow it, so truncated, oversized, or hostile frames fail with
// a typed error instead of panicking or over-reading.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Protocol constants.
const (
	// Magic begins every frame: "CCFW" read as a little-endian uint32.
	Magic uint32 = 0x57464343
	// Version is the protocol version this package speaks. A frame with
	// a different version is rejected with ErrVersion.
	Version byte = 1
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 12
	// ContentType negotiates the binary protocol on the existing HTTP
	// endpoints: a POST insert/query body with this content type is one
	// wire frame, and the response body is one wire frame too.
	ContentType = "application/x-ccf-batch"
	// DefaultMaxFrame caps payload bytes when the caller does not say
	// otherwise — the same default as the HTTP layer's -max-body.
	DefaultMaxFrame = 64 << 20
)

// Op identifies what a frame carries.
type Op uint8

// The opcode table. Requests flow client→server, responses server→client.
const (
	OpInvalid  Op = 0
	OpQuery    Op = 1 // request: batched key query (optionally predicated)
	OpInsert   Op = 2 // request: batched row insert
	OpResult   Op = 3 // response: packed query result bitmap
	OpInserted Op = 4 // response: insert outcome (+ per-row statuses)
	OpError    Op = 5 // response: typed error
)

// String names the opcode for logs and errors.
func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpInsert:
		return "insert"
	case OpResult:
		return "result"
	case OpInserted:
		return "inserted"
	case OpError:
		return "error"
	default:
		return "invalid"
	}
}

// Typed decode failures. All of them wrap ErrFrame so callers can match
// the whole class with one errors.Is.
var (
	// ErrFrame is the base class: the bytes do not parse as a frame.
	ErrFrame = errors.New("wire: malformed frame")
	// ErrMagic reports a frame that does not start with Magic — the peer
	// is not speaking this protocol (a JSON body on the wire port, TLS,
	// line noise).
	ErrMagic = fmt.Errorf("%w: bad magic (peer not speaking the ccf wire protocol?)", ErrFrame)
	// ErrVersion reports a protocol version this build does not speak.
	ErrVersion = fmt.Errorf("%w: unsupported protocol version", ErrFrame)
	// ErrTruncated reports a frame or payload that ended early.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrFrame)
)

// TooLargeError reports a frame whose declared payload exceeds the
// receiver's cap — the binary mirror of the HTTP layer's 413. It is
// returned before any payload byte is read, so a hostile length cannot
// make the receiver allocate or consume it.
type TooLargeError struct {
	Size  int64 // declared payload bytes
	Limit int64 // receiver's cap
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("wire: frame payload %d bytes exceeds limit %d", e.Size, e.Limit)
}

// Is makes errors.Is(err, ErrTooLarge) match.
func (e *TooLargeError) Is(target error) bool { return target == ErrTooLarge }

// ErrTooLarge matches any *TooLargeError via errors.Is.
var ErrTooLarge = errors.New("wire: frame too large")

// PutHeader writes the 12-byte frame header for a payload of n bytes
// into dst, which must have room.
func PutHeader(dst []byte, op Op, n int) {
	binary.LittleEndian.PutUint32(dst[0:4], Magic)
	dst[4] = Version
	dst[5] = byte(op)
	dst[6], dst[7] = 0, 0
	binary.LittleEndian.PutUint32(dst[8:12], uint32(n))
}

// ParseHeader validates a 12-byte frame header and returns the opcode
// and payload length. limit caps the declared payload (≤ 0 means
// DefaultMaxFrame); violations return a *TooLargeError without touching
// the payload.
func ParseHeader(h []byte, limit int64) (Op, int, error) {
	if len(h) < HeaderSize {
		return OpInvalid, 0, ErrTruncated
	}
	if binary.LittleEndian.Uint32(h[0:4]) != Magic {
		return OpInvalid, 0, ErrMagic
	}
	if h[4] != Version {
		return OpInvalid, 0, fmt.Errorf("%w %d (want %d)", ErrVersion, h[4], Version)
	}
	if h[6] != 0 || h[7] != 0 {
		return OpInvalid, 0, fmt.Errorf("%w: nonzero reserved bytes", ErrFrame)
	}
	n := int64(binary.LittleEndian.Uint32(h[8:12]))
	if limit <= 0 {
		limit = DefaultMaxFrame
	}
	if n > limit {
		return OpInvalid, 0, &TooLargeError{Size: n, Limit: limit}
	}
	return Op(h[5]), int(n), nil
}

// Buffer is a reusable receive buffer whose base address is always
// 8-byte aligned, so a payload read into it can hand out its key block
// as a []uint64 alias (see Query.Keys). The zero value is ready to use.
type Buffer struct {
	words []uint64
	hdr   [HeaderSize]byte
}

// Bytes returns an 8-aligned []byte of length n, growing the backing
// storage geometrically so steady-state reuse never allocates.
func (b *Buffer) Bytes(n int) []byte {
	w := (n + 7) / 8
	if cap(b.words) < w {
		b.words = make([]uint64, w+w/2+8)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&b.words[:1][0])), n)
}

// Cap returns the bytes b's storage holds, so a pool can drop a buffer
// that one oversized frame has grown.
func (b *Buffer) Cap() int { return 8 * cap(b.words) }

// ReadFrame reads one frame from r: header, validation, then the
// payload into buf's aligned storage. limit caps the payload (≤ 0 means
// DefaultMaxFrame). io.EOF is returned untouched when the stream ends
// cleanly at a frame boundary, so connection loops can distinguish a
// hung-up peer from a torn frame (io.ErrUnexpectedEOF wrapped in
// ErrTruncated).
//
// The returned payload aliases buf and is valid until the next call.
func ReadFrame(r io.Reader, buf *Buffer, limit int64) (Op, []byte, error) {
	if _, err := io.ReadFull(r, buf.hdr[:]); err != nil {
		if err == io.EOF {
			return OpInvalid, nil, io.EOF
		}
		return OpInvalid, nil, fmt.Errorf("%w: %s", ErrTruncated, err)
	}
	op, n, err := ParseHeader(buf.hdr[:], limit)
	if err != nil {
		return OpInvalid, nil, err
	}
	p := buf.Bytes(n)
	if _, err := io.ReadFull(r, p); err != nil {
		return OpInvalid, nil, fmt.Errorf("%w: %s", ErrTruncated, err)
	}
	return op, p, nil
}

// hostLittleEndian reports whether uint64 memory order matches the wire
// order, which is what makes the []uint64 alias of a key block valid.
// On a big-endian host every decode falls back to the copying path.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedU64 reinterprets b (len 8*n, 8-aligned base) as n uint64
// words. ok is false when the base is misaligned or the host is
// big-endian; callers then copy-decode instead.
func alignedU64(b []byte, n int) (out []uint64, ok bool) {
	if n == 0 {
		return nil, true
	}
	if !hostLittleEndian || uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), true
}

// pad8 returns the padding needed to advance off to the next multiple
// of 8.
func pad8(off int) int { return (8 - off%8) & 7 }

// u64Scratch grows (without preserving) a []uint64 to length n.
func u64Scratch(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n, n+n/2+8)
	}
	return buf[:n]
}

// Cond is one predicate conjunct: attribute attr must take one of
// Values. The wire form of core.Cond, kept separate so the package
// stays dependency-free.
type Cond struct {
	Attr   int
	Values []uint64
}

// Query is a decoded OpQuery payload. Name, Pred and Keys alias the
// frame buffer and the decode Scratch; they are valid until the next
// decode with the same Scratch or reuse of the buffer.
type Query struct {
	Name    []byte
	ViaView bool
	Pred    []Cond
	Keys    []uint64
}

// Insert is a decoded OpInsert payload. Keys has one entry per row;
// Attrs is row-major with NumAttrs values per row. Both alias the frame
// buffer when the host allows it.
type Insert struct {
	Name     []byte
	NumAttrs int
	Keys     []uint64
	Attrs    []uint64
}

// Scratch is the decoder's reusable storage: predicate conjuncts and
// values, and the copy-fallback key/attr buffers for hosts where the
// zero-copy alias is unavailable. One Scratch per connection (or pooled
// per request) keeps the steady-state decode allocation-free. The zero
// value is ready to use.
type Scratch struct {
	q     Query
	ins   Insert
	conds []Cond
	vals  []uint64
	keys  []uint64
	attrs []uint64
}

// Cap returns the bytes sc's decode storage holds, counted by capacity.
func (sc *Scratch) Cap() int {
	return cap(sc.conds)*int(unsafe.Sizeof(Cond{})) + 8*(cap(sc.vals)+cap(sc.keys)+cap(sc.attrs))
}

// query payload flag bits. ccfd decodes the via_view hint and ignores
// it: every query runs the compiled batch probe.
const queryFlagViaView = 1 << 0

// inserted payload flag bits.
const insertedFlagStatuses = 1 << 0

// result payload flag bits. ccfd writes result frames with flags 0.
const (
	resultFlagViaView  = 1 << 0
	resultFlagCacheHit = 1 << 1
)

// sanity caps on counted fields, preventing a hostile varint from
// driving a huge scratch allocation before the per-byte bounds checks
// would catch it. Every counted element is ≥ 1 byte, so a count can
// never legitimately exceed the payload length.
func countFits(n uint64, perElem int, remaining int) bool {
	return n <= uint64(remaining)/uint64(perElem)
}

// uvarint reads a LEB128 varint at b[off:], returning the value and the
// new offset, or ok=false on truncation/overflow.
func uvarint(b []byte, off int) (v uint64, newOff int, ok bool) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, off, false
	}
	return v, off + n, true
}

// AppendQuery appends a complete OpQuery frame (header included) for a
// batch of keys against the named filter.
func AppendQuery(dst []byte, name string, pred []Cond, keys []uint64, viaView bool) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	pstart := len(dst)
	dst = appendString(dst, name)
	var flags byte
	if viaView {
		flags |= queryFlagViaView
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(pred)))
	for _, c := range pred {
		dst = binary.AppendUvarint(dst, uint64(c.Attr))
		dst = binary.AppendUvarint(dst, uint64(len(c.Values)))
		for _, v := range c.Values {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	dst = appendPad(dst, pstart)
	dst = appendU64s(dst, keys)
	PutHeader(dst[start:], OpQuery, len(dst)-pstart)
	return dst
}

// DecodeQuery decodes an OpQuery payload. The result aliases payload
// and sc; it is valid until either is reused.
func DecodeQuery(sc *Scratch, payload []byte) (*Query, error) {
	q := &sc.q
	*q = Query{}
	name, off, err := decodeString(payload, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: query name: %s", ErrFrame, err)
	}
	q.Name = name
	if off >= len(payload) {
		return nil, fmt.Errorf("%w: query flags", ErrTruncated)
	}
	flags := payload[off]
	off++
	q.ViaView = flags&queryFlagViaView != 0
	q.Pred, off, err = decodePred(sc, payload, off)
	if err != nil {
		return nil, err
	}
	nk, off, ok := uvarint(payload, off)
	if !ok {
		return nil, fmt.Errorf("%w: key count", ErrTruncated)
	}
	off += pad8(off)
	if !countFits(nk, 8, len(payload)-min(off, len(payload))) {
		return nil, fmt.Errorf("%w: %d keys do not fit in %d payload bytes", ErrFrame, nk, len(payload))
	}
	q.Keys, off, err = decodeU64s(payload, off, int(nk), &sc.keys)
	if err != nil {
		return nil, fmt.Errorf("%w: keys: %s", ErrTruncated, err)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes after query", ErrFrame, len(payload)-off)
	}
	return q, nil
}

// AppendInsert appends a complete OpInsert frame for rows of
// (key, attrs[numAttrs]) against the named filter. attrs is row-major
// flattened: len(attrs) must equal len(keys)*numAttrs.
func AppendInsert(dst []byte, name string, keys []uint64, attrs []uint64, numAttrs int) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	pstart := len(dst)
	dst = appendString(dst, name)
	dst = binary.AppendUvarint(dst, uint64(numAttrs))
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	dst = appendPad(dst, pstart)
	dst = appendU64s(dst, keys)
	dst = appendU64s(dst, attrs)
	PutHeader(dst[start:], OpInsert, len(dst)-pstart)
	return dst
}

// DecodeInsert decodes an OpInsert payload. The result aliases payload
// and sc.
func DecodeInsert(sc *Scratch, payload []byte) (*Insert, error) {
	ins := &sc.ins
	*ins = Insert{}
	name, off, err := decodeString(payload, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: insert name: %s", ErrFrame, err)
	}
	ins.Name = name
	na, off, ok := uvarint(payload, off)
	if !ok {
		return nil, fmt.Errorf("%w: attr count", ErrTruncated)
	}
	nr, off, ok := uvarint(payload, off)
	if !ok {
		return nil, fmt.Errorf("%w: row count", ErrTruncated)
	}
	off += pad8(off)
	rem := len(payload) - min(off, len(payload))
	// Each row is 8 key bytes + 8*numAttrs attr bytes.
	if na > math.MaxUint32 || !countFits(nr, 8*(1+int(na)), rem) {
		return nil, fmt.Errorf("%w: %d rows × %d attrs do not fit in %d payload bytes",
			ErrFrame, nr, na, len(payload))
	}
	ins.NumAttrs = int(na)
	ins.Keys, off, err = decodeU64s(payload, off, int(nr), &sc.keys)
	if err != nil {
		return nil, fmt.Errorf("%w: keys: %s", ErrTruncated, err)
	}
	ins.Attrs, off, err = decodeU64s(payload, off, int(nr)*int(na), &sc.attrs)
	if err != nil {
		return nil, fmt.Errorf("%w: attrs: %s", ErrTruncated, err)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes after insert", ErrFrame, len(payload)-off)
	}
	return ins, nil
}

// AppendResult appends a complete OpResult frame: the per-key outcomes
// packed 1 bit per key, LSB-first within each byte, with the last byte's
// unused bits zero.
func AppendResult(dst []byte, results []bool, viaView, cacheHit bool) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	pstart := len(dst)
	var flags byte
	if viaView {
		flags |= resultFlagViaView
	}
	if cacheHit {
		flags |= resultFlagCacheHit
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	nb := (len(results) + 7) / 8
	dst = slices.Grow(dst, nb)
	bm := dst[len(dst) : len(dst)+nb]
	dst = dst[:len(dst)+nb]
	// A bool is one byte holding 0 or 1. Read 8 of them as a little-endian
	// word; the multiply moves byte i's low bit to bit 56+i and nothing
	// else into the top byte, so each byte of results packs without a
	// branch.
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(results))), len(results))
	for ; len(b) >= 8; b, bm = b[8:], bm[1:] {
		bm[0] = byte((binary.LittleEndian.Uint64(b) * 0x0102040810204080) >> 56)
	}
	if len(b) > 0 {
		var last byte
		for i, r := range b {
			last |= r << i
		}
		bm[0] = last
	}
	PutHeader(dst[start:], OpResult, len(dst)-pstart)
	return dst
}

// Result is a decoded OpResult payload. Bitmap aliases the frame
// buffer.
type Result struct {
	N        int
	Bitmap   []byte
	ViaView  bool
	CacheHit bool
}

// Bit returns result i.
func (r *Result) Bit(i int) bool { return r.Bitmap[i>>3]&(1<<(i&7)) != 0 }

// Expand unpacks the bitmap into dst (reused when it has capacity).
func (r *Result) Expand(dst []bool) []bool {
	if cap(dst) < r.N {
		dst = make([]bool, r.N)
	}
	dst = dst[:r.N]
	for i := range dst {
		dst[i] = r.Bit(i)
	}
	return dst
}

// DecodeResult decodes an OpResult payload.
func DecodeResult(payload []byte) (Result, error) {
	if len(payload) < 1 {
		return Result{}, fmt.Errorf("%w: result flags", ErrTruncated)
	}
	flags := payload[0]
	n, off, ok := uvarint(payload, 1)
	if !ok {
		return Result{}, fmt.Errorf("%w: result count", ErrTruncated)
	}
	nb := (n + 7) / 8
	if !countFits(nb, 1, len(payload)-off) || n > uint64(math.MaxInt32) {
		return Result{}, fmt.Errorf("%w: %d results do not fit in %d payload bytes", ErrFrame, n, len(payload))
	}
	bm := payload[off : off+int(nb)]
	if off+int(nb) != len(payload) {
		return Result{}, fmt.Errorf("%w: trailing bytes after result bitmap", ErrFrame)
	}
	return Result{
		N: int(n), Bitmap: bm,
		ViaView:  flags&resultFlagViaView != 0,
		CacheHit: flags&resultFlagCacheHit != 0,
	}, nil
}

// AppendInserted appends a complete OpInserted frame. statuses carries
// one shard.RowStatus byte per row; pass nil when every row landed (the
// common case — the statuses block is elided and rows == accepted).
func AppendInserted(dst []byte, accepted, rows int, statuses []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	pstart := len(dst)
	var flags byte
	if statuses != nil {
		flags |= insertedFlagStatuses
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(accepted))
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = append(dst, statuses...)
	PutHeader(dst[start:], OpInserted, len(dst)-pstart)
	return dst
}

// Inserted is a decoded OpInserted payload. Statuses aliases the frame
// buffer; it is nil when every row was accepted.
type Inserted struct {
	Accepted int
	Rows     int
	Statuses []byte
}

// DecodeInserted decodes an OpInserted payload.
func DecodeInserted(payload []byte) (Inserted, error) {
	if len(payload) < 1 {
		return Inserted{}, fmt.Errorf("%w: inserted flags", ErrTruncated)
	}
	flags := payload[0]
	acc, off, ok := uvarint(payload, 1)
	if !ok {
		return Inserted{}, fmt.Errorf("%w: accepted count", ErrTruncated)
	}
	rows, off, ok := uvarint(payload, off)
	if !ok {
		return Inserted{}, fmt.Errorf("%w: row count", ErrTruncated)
	}
	if acc > rows || rows > uint64(math.MaxInt32) {
		return Inserted{}, fmt.Errorf("%w: accepted %d > rows %d", ErrFrame, acc, rows)
	}
	out := Inserted{Accepted: int(acc), Rows: int(rows)}
	if flags&insertedFlagStatuses != 0 {
		if !countFits(rows, 1, len(payload)-off) {
			return Inserted{}, fmt.Errorf("%w: statuses", ErrTruncated)
		}
		out.Statuses = payload[off : off+int(rows)]
		off += int(rows)
	}
	if off != len(payload) {
		return Inserted{}, fmt.Errorf("%w: trailing bytes after inserted", ErrFrame)
	}
	return out, nil
}

// ErrKind is the machine-readable class of an OpError frame — the
// serving layer's error vocabulary (degraded read-only store, admission
// shed, rate limit, deadline …) as a closed enum, so clients and the
// runbook switch on a kind instead of parsing message strings.
type ErrKind uint8

// The error-kind table, with the HTTP status each mirrors.
const (
	KindInternal    ErrKind = iota // 500: unexpected server failure
	KindBadFrame                   // 400: bytes do not parse as a frame
	KindBadRequest                 // 400: well-formed frame, bad semantics
	KindNotFound                   // 404: no such filter
	KindTooLarge                   // 413: frame exceeds the size cap
	KindRateLimited                // 429: per-filter token bucket
	KindOverloaded                 // 503: admission control shed
	KindDegraded                   // 503: store degraded, writes rejected
	KindDeadline                   // 504: request deadline exceeded
	KindUnsupported                // 400: opcode not valid here
	KindNotReady                   // 503: boot recovery still running
	numKinds
)

var kindNames = [numKinds]string{
	"internal", "bad_frame", "bad_request", "not_found", "too_large",
	"rate_limited", "overloaded", "degraded", "deadline", "unsupported",
	"not_ready",
}

// String names the kind (snake_case, stable — clients may switch on it).
func (k ErrKind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// RemoteError is a decoded OpError frame, returned by clients as the
// request error. Code mirrors the HTTP status the JSON path would have
// answered.
type RemoteError struct {
	Code int
	Kind ErrKind
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: server error %d (%s): %s", e.Code, e.Kind, e.Msg)
}

// AppendError appends a complete OpError frame.
func AppendError(dst []byte, code int, kind ErrKind, msg string) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	pstart := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(code))
	dst = append(dst, byte(kind))
	dst = appendString(dst, msg)
	PutHeader(dst[start:], OpError, len(dst)-pstart)
	return dst
}

// DecodeError decodes an OpError payload. The message is copied (error
// values outlive receive buffers).
func DecodeError(payload []byte) (*RemoteError, error) {
	if len(payload) < 3 {
		return nil, fmt.Errorf("%w: error frame", ErrTruncated)
	}
	code := int(binary.LittleEndian.Uint16(payload[0:2]))
	kind := ErrKind(payload[2])
	msg, off, err := decodeString(payload, 3)
	if err != nil {
		return nil, fmt.Errorf("%w: error message: %s", ErrTruncated, err)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: trailing bytes after error", ErrFrame)
	}
	return &RemoteError{Code: code, Kind: kind, Msg: string(msg)}, nil
}

// --- low-level helpers ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(b []byte, off int) ([]byte, int, error) {
	n, off, ok := uvarint(b, off)
	if !ok {
		return nil, 0, errors.New("length")
	}
	if !countFits(n, 1, len(b)-off) {
		return nil, 0, errors.New("bytes")
	}
	return b[off : off+int(n)], off + int(n), nil
}

// appendPad pads dst with zero bytes so the next append lands 8-aligned
// relative to the payload start pstart. The decoder recomputes the same
// pad from its own offset, so no pad length travels on the wire.
func appendPad(dst []byte, pstart int) []byte {
	for i := pad8(len(dst) - pstart); i > 0; i-- {
		dst = append(dst, 0)
	}
	return dst
}

// appendU64s appends vals as raw 8-byte little-endian words.
func appendU64s(dst []byte, vals []uint64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// decodeU64s reads n raw little-endian words at b[off:]. On a
// little-endian host with an aligned base the result aliases b
// (zero-copy); otherwise it is copy-decoded into *scratch.
func decodeU64s(b []byte, off, n int, scratch *[]uint64) ([]uint64, int, error) {
	if off > len(b) || n > (len(b)-off)/8 {
		return nil, off, errors.New("short")
	}
	blk := b[off : off+8*n]
	if out, ok := alignedU64(blk, n); ok {
		return out, off + 8*n, nil
	}
	*scratch = u64Scratch(*scratch, n)
	for i := 0; i < n; i++ {
		(*scratch)[i] = binary.LittleEndian.Uint64(blk[8*i:])
	}
	return *scratch, off + 8*n, nil
}

func decodePred(sc *Scratch, b []byte, off int) ([]Cond, int, error) {
	nc, off, ok := uvarint(b, off)
	if !ok {
		return nil, off, fmt.Errorf("%w: predicate count", ErrTruncated)
	}
	// Each conjunct is ≥ 2 bytes (attr + value count).
	if !countFits(nc, 2, len(b)-off) {
		return nil, off, fmt.Errorf("%w: %d conjuncts do not fit", ErrFrame, nc)
	}
	if nc == 0 {
		return nil, off, nil
	}
	if cap(sc.conds) < int(nc) {
		sc.conds = make([]Cond, nc, nc+4)
	}
	sc.conds = sc.conds[:nc]
	sc.vals = sc.vals[:0]
	// Two passes would let values alias one backing array without
	// re-slicing hazards; instead record value counts and fix up the
	// sub-slices after all appends (append may move the backing array).
	for i := range sc.conds {
		attr, o, ok := uvarint(b, off)
		if !ok {
			return nil, off, fmt.Errorf("%w: conjunct attr", ErrTruncated)
		}
		nv, o, ok := uvarint(b, o)
		if !ok {
			return nil, off, fmt.Errorf("%w: conjunct value count", ErrTruncated)
		}
		if attr > math.MaxInt32 || !countFits(nv, 1, len(b)-o) {
			return nil, off, fmt.Errorf("%w: conjunct shape", ErrFrame)
		}
		start := len(sc.vals)
		for j := uint64(0); j < nv; j++ {
			var v uint64
			v, o, ok = uvarint(b, o)
			if !ok {
				return nil, off, fmt.Errorf("%w: conjunct value", ErrTruncated)
			}
			sc.vals = append(sc.vals, v)
		}
		sc.conds[i] = Cond{Attr: int(attr)}
		// Stash (start, len) in Values via a temporary header; resolved
		// below once sc.vals stops moving.
		sc.conds[i].Values = sc.vals[start:len(sc.vals):len(sc.vals)]
		off = o
	}
	// Re-derive every Values sub-slice against the final backing array:
	// appends after a conjunct was recorded may have moved sc.vals.
	base := 0
	for i := range sc.conds {
		n := len(sc.conds[i].Values)
		sc.conds[i].Values = sc.vals[base : base+n : base+n]
		base += n
	}
	return sc.conds, off, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
