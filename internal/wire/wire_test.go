package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func mkKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 12345
	}
	return keys
}

func TestQueryRoundTrip(t *testing.T) {
	pred := []Cond{{Attr: 0, Values: []uint64{1}}, {Attr: 3, Values: []uint64{7, 9, 1 << 40}}}
	for _, n := range []int{0, 1, 7, 8, 64, 1024} {
		keys := mkKeys(n)
		frame := AppendQuery(nil, "events", pred, keys, true)
		var buf Buffer
		var sc Scratch
		op, payload, err := ReadFrame(bytes.NewReader(frame), &buf, 0)
		if err != nil || op != OpQuery {
			t.Fatalf("n=%d: ReadFrame: op=%v err=%v", n, op, err)
		}
		q, err := DecodeQuery(&sc, payload)
		if err != nil {
			t.Fatalf("n=%d: DecodeQuery: %v", n, err)
		}
		if string(q.Name) != "events" || !q.ViaView || len(q.Keys) != n {
			t.Fatalf("n=%d: decoded %q viaView=%v keys=%d", n, q.Name, q.ViaView, len(q.Keys))
		}
		for i, k := range keys {
			if q.Keys[i] != k {
				t.Fatalf("n=%d: key %d = %d, want %d", n, i, q.Keys[i], k)
			}
		}
		if len(q.Pred) != len(pred) {
			t.Fatalf("n=%d: pred len %d", n, len(q.Pred))
		}
		for i, c := range pred {
			if q.Pred[i].Attr != c.Attr {
				t.Fatalf("pred %d attr %d want %d", i, q.Pred[i].Attr, c.Attr)
			}
			for j, v := range c.Values {
				if q.Pred[i].Values[j] != v {
					t.Fatalf("pred %d val %d = %d want %d", i, j, q.Pred[i].Values[j], v)
				}
			}
		}
	}
}

func TestInsertRoundTrip(t *testing.T) {
	for _, tc := range []struct{ rows, attrs int }{{0, 0}, {1, 2}, {64, 2}, {100, 0}, {33, 5}} {
		keys := mkKeys(tc.rows)
		attrs := make([]uint64, tc.rows*tc.attrs)
		for i := range attrs {
			attrs[i] = uint64(i % 9)
		}
		frame := AppendInsert(nil, "f1", keys, attrs, tc.attrs)
		var buf Buffer
		var sc Scratch
		op, payload, err := ReadFrame(bytes.NewReader(frame), &buf, 0)
		if err != nil || op != OpInsert {
			t.Fatalf("%+v: ReadFrame: op=%v err=%v", tc, op, err)
		}
		ins, err := DecodeInsert(&sc, payload)
		if err != nil {
			t.Fatalf("%+v: DecodeInsert: %v", tc, err)
		}
		if string(ins.Name) != "f1" || ins.NumAttrs != tc.attrs || len(ins.Keys) != tc.rows {
			t.Fatalf("%+v: decoded name=%q attrs=%d rows=%d", tc, ins.Name, ins.NumAttrs, len(ins.Keys))
		}
		for i, k := range keys {
			if ins.Keys[i] != k {
				t.Fatalf("%+v: key %d mismatch", tc, i)
			}
		}
		for i, a := range attrs {
			if ins.Attrs[i] != a {
				t.Fatalf("%+v: attr %d mismatch", tc, i)
			}
		}
	}
}

// appendResultRef is the one-bit-at-a-time reference encoding of a
// result frame that AppendResult must reproduce byte for byte.
func appendResultRef(dst []byte, results []bool, viaView bool) []byte {
	var flags byte
	if viaView {
		flags = resultFlagViaView
	}
	payload := binary.AppendUvarint([]byte{flags}, uint64(len(results)))
	bm := make([]byte, (len(results)+7)/8)
	for i, r := range results {
		if r {
			bm[i/8] |= 1 << (i % 8)
		}
	}
	payload = append(payload, bm...)
	hdr := make([]byte, HeaderSize)
	PutHeader(hdr, OpResult, len(payload))
	return append(append(dst, hdr...), payload...)
}

func TestResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1000}
	for n := 0; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, pattern := range []string{"random", "true", "false", "thirds"} {
			// Offset by one byte so the 8-byte loads are unaligned.
			results := make([]bool, n+1)[1:]
			for i := range results {
				switch pattern {
				case "random":
					results[i] = rng.Intn(2) == 1
				case "true":
					results[i] = true
				case "thirds":
					results[i] = i%3 == 0
				}
			}
			prefix := []byte("prefix")
			frame := AppendResult(bytes.Clone(prefix), results, true, false)
			if want := appendResultRef(bytes.Clone(prefix), results, true); !bytes.Equal(frame, want) {
				t.Fatalf("n=%d %s: frame\n%x\nwant\n%x", n, pattern, frame, want)
			}
			frame = frame[len(prefix):]
			var buf Buffer
			op, payload, err := ReadFrame(bytes.NewReader(frame), &buf, 0)
			if err != nil || op != OpResult {
				t.Fatalf("n=%d %s: op=%v err=%v", n, pattern, op, err)
			}
			r, err := DecodeResult(payload)
			if err != nil {
				t.Fatalf("n=%d %s: DecodeResult: %v", n, pattern, err)
			}
			if r.N != n || !r.ViaView || r.CacheHit {
				t.Fatalf("n=%d %s: N=%d flags=%v/%v", n, pattern, r.N, r.ViaView, r.CacheHit)
			}
			got := r.Expand(nil)
			for i := range results {
				if got[i] != results[i] {
					t.Fatalf("n=%d %s: bit %d = %v", n, pattern, i, got[i])
				}
			}
		}
	}
}

func TestInsertedRoundTrip(t *testing.T) {
	statuses := []byte{0, 1, 0, 2, 4}
	frame := AppendInserted(nil, 3, 5, statuses)
	var buf Buffer
	op, payload, err := ReadFrame(bytes.NewReader(frame), &buf, 0)
	if err != nil || op != OpInserted {
		t.Fatalf("op=%v err=%v", op, err)
	}
	ins, err := DecodeInserted(payload)
	if err != nil {
		t.Fatalf("DecodeInserted: %v", err)
	}
	if ins.Accepted != 3 || ins.Rows != 5 || !bytes.Equal(ins.Statuses, statuses) {
		t.Fatalf("decoded %+v", ins)
	}

	// Elided statuses (all accepted).
	frame = AppendInserted(nil, 64, 64, nil)
	op, payload, err = ReadFrame(bytes.NewReader(frame), &buf, 0)
	if err != nil || op != OpInserted {
		t.Fatalf("op=%v err=%v", op, err)
	}
	ins, err = DecodeInserted(payload)
	if err != nil || ins.Accepted != 64 || ins.Rows != 64 || ins.Statuses != nil {
		t.Fatalf("decoded %+v err=%v", ins, err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	frame := AppendError(nil, 503, KindDegraded, "store degraded: disk full")
	var buf Buffer
	op, payload, err := ReadFrame(bytes.NewReader(frame), &buf, 0)
	if err != nil || op != OpError {
		t.Fatalf("op=%v err=%v", op, err)
	}
	re, err := DecodeError(payload)
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if re.Code != 503 || re.Kind != KindDegraded || re.Msg != "store degraded: disk full" {
		t.Fatalf("decoded %+v", re)
	}
	if re.Kind.String() != "degraded" {
		t.Fatalf("kind name %q", re.Kind.String())
	}
}

// TestZeroCopyAlias proves the decode path hands back keys aliasing the
// receive buffer on little-endian hosts — the property the zero-alloc
// serving path depends on.
func TestZeroCopyAlias(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: copy fallback in use")
	}
	keys := mkKeys(64)
	frame := AppendQuery(nil, "f", nil, keys, false)
	var buf Buffer
	var sc Scratch
	_, payload, err := ReadFrame(bytes.NewReader(frame), &buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeQuery(&sc, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the underlying buffer; the decoded keys must see it.
	payload[len(payload)-8] ^= 0xff
	if q.Keys[63] == keys[63] {
		t.Fatal("decoded keys do not alias the receive buffer")
	}
}

func TestHeaderErrors(t *testing.T) {
	good := AppendQuery(nil, "f", nil, mkKeys(4), false)

	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, _, err := ParseHeader(bad, 0); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, _, err := ParseHeader(bad, 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[6] = 1
	if _, _, err := ParseHeader(bad, 0); !errors.Is(err, ErrFrame) {
		t.Fatalf("reserved bytes: %v", err)
	}

	if _, _, err := ParseHeader(good[:5], 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	frame := AppendQuery(nil, "f", nil, mkKeys(64), false)
	var buf Buffer
	_, _, err := ReadFrame(bytes.NewReader(frame), &buf, 16)
	var tl *TooLargeError
	if !errors.As(err, &tl) {
		t.Fatalf("want TooLargeError, got %v", err)
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("errors.Is(ErrTooLarge) = false for %v", err)
	}
	if tl.Limit != 16 || tl.Size <= 16 {
		t.Fatalf("TooLargeError %+v", tl)
	}
}

func TestTruncatedFrames(t *testing.T) {
	frame := AppendQuery(nil, "filter", []Cond{{Attr: 1, Values: []uint64{2, 3}}}, mkKeys(16), false)
	var buf Buffer
	var sc Scratch
	// Every proper prefix must fail cleanly: truncated error from
	// ReadFrame, or a decode error — never a panic, never success.
	for cut := 0; cut < len(frame); cut++ {
		op, payload, err := ReadFrame(bytes.NewReader(frame[:cut]), &buf, 0)
		if err == nil {
			if _, derr := DecodeQuery(&sc, payload); derr == nil {
				t.Fatalf("cut=%d: truncated frame decoded successfully (op=%v)", cut, op)
			}
		} else if cut == 0 && err != io.EOF {
			t.Fatalf("empty stream: want io.EOF, got %v", err)
		}
	}
}

// TestPayloadTruncation corrupts the declared payload length downward
// so the frame parses but the payload is short for its counts.
func TestPayloadTruncation(t *testing.T) {
	full := AppendQuery(nil, "f", nil, mkKeys(32), false)
	payload := full[HeaderSize:]
	var sc Scratch
	for cut := 0; cut < len(payload); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut=%d: decode panicked: %v", cut, r)
				}
			}()
			if q, err := DecodeQuery(&sc, payload[:cut]); err == nil && len(q.Keys) == 32 {
				t.Fatalf("cut=%d: truncated payload decoded fully", cut)
			}
		}()
	}
}

func TestDecodeGarbage(t *testing.T) {
	var sc Scratch
	garbage := [][]byte{
		nil,
		{0xff},
		bytes.Repeat([]byte{0xff}, 64),
		bytes.Repeat([]byte{0x80}, 32), // unterminated varint
		{2, 'h', 'i', 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge key count
	}
	for i, g := range garbage {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("garbage %d: panicked: %v", i, r)
				}
			}()
			DecodeQuery(&sc, g)
			DecodeInsert(&sc, g)
			DecodeResult(g)
			DecodeInserted(g)
			DecodeError(g)
		}()
	}
}

func TestPipelinedEOF(t *testing.T) {
	// Two frames back to back, then clean EOF.
	frames := AppendQuery(nil, "a", nil, mkKeys(8), false)
	frames = AppendQuery(frames, "b", nil, mkKeys(8), false)
	r := bytes.NewReader(frames)
	var buf Buffer
	for i := 0; i < 2; i++ {
		if op, _, err := ReadFrame(r, &buf, 0); err != nil || op != OpQuery {
			t.Fatalf("frame %d: op=%v err=%v", i, op, err)
		}
	}
	if _, _, err := ReadFrame(r, &buf, 0); err != io.EOF {
		t.Fatalf("want clean io.EOF at frame boundary, got %v", err)
	}
}

// TestDecodeZeroAlloc verifies steady-state decode is allocation-free:
// the acceptance criterion's foundation before server wiring.
func TestDecodeZeroAlloc(t *testing.T) {
	keys := mkKeys(64)
	frame := AppendQuery(nil, "events", []Cond{{Attr: 0, Values: []uint64{1}}}, keys, false)
	var buf Buffer
	var sc Scratch
	r := bytes.NewReader(frame)
	// Warm the pools/scratch once.
	r.Reset(frame)
	if _, p, err := ReadFrame(r, &buf, 0); err != nil {
		t.Fatal(err)
	} else if _, err := DecodeQuery(&sc, p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		_, p, err := ReadFrame(r, &buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeQuery(&sc, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode allocates %.1f/op, want 0", allocs)
	}
}

// TestEncodeZeroAlloc verifies steady-state response encode into a
// reused buffer is allocation-free.
func TestEncodeZeroAlloc(t *testing.T) {
	results := make([]bool, 64)
	for i := range results {
		results[i] = i%2 == 0
	}
	out := AppendResult(nil, results, false, false)
	allocs := testing.AllocsPerRun(200, func() {
		out = AppendResult(out[:0], results, false, false)
	})
	if allocs != 0 {
		t.Fatalf("encode allocates %.1f/op, want 0", allocs)
	}
}

func TestAlignmentOfPooledBuffer(t *testing.T) {
	var buf Buffer
	for _, n := range []int{1, 7, 8, 12345} {
		b := buf.Bytes(n)
		if len(b) != n {
			t.Fatalf("Bytes(%d) len %d", n, len(b))
		}
	}
}
