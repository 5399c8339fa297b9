// Package store makes the filter-serving subsystem durable. Each named
// filter gets a directory holding a write-ahead log (length-prefixed,
// CRC32C-framed records for every mutation), immutable checksummed
// checkpoint segments written from shard.Snapshot, and a MANIFEST that
// names the current segment generation. On boot the store loads the
// newest valid segment — torn or bit-flipped segments fall back to the
// previous generation — and replays the WAL tail through the normal
// ShardedFilter paths, so a ccfd restart (graceful or SIGKILL) serves
// the same answers as before.
//
// Durability follows the classic WAL discipline: mutations append a
// record before they touch the in-memory filter, and the fsync policy
// decides when the append becomes durable. FsyncAlways group-commits —
// concurrent batches share one fsync — so every acked write survives a
// crash; FsyncInterval bounds the loss window to the flush interval;
// FsyncNever leaves syncing to the OS page cache.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
)

// WAL file layout: a 16-byte header (magic, version, first record
// sequence number) followed by frames. Each frame is
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// and each payload is
//
//	u8 record type | u64 sequence number | body
//
// Frames are verified on replay; the first torn or corrupt frame ends
// recovery for the filter and the file is truncated to its valid prefix.
const (
	walMagic      = 0x4C574343 // "CCWL"
	walVersion    = 1
	walHeaderSize = 16
	// maxWALFrame bounds a single record so a corrupt length field cannot
	// drive a huge allocation. Restore records carry whole snapshots, so
	// the bound is generous.
	maxWALFrame = 1 << 31
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record types. Create and Restore carry a whole-set snapshot
// (shard.Snapshot wire format); Insert, InsertBatch and Delete carry
// rows; Drop carries nothing and marks the filter logically gone. Grow
// carries the shard index of a policy-driven level opening (reactive
// growth inside an insert needs no record: it replays deterministically
// from the insert stream). Fold carries the snapshot of the collapsed,
// right-sized filter a background fold swapped in; recovery installs it
// like a Restore, but a later fold's history replay skips it — the fold
// snapshot is derived state, equivalent to the organic records around it.
const (
	recCreate      byte = 1
	recDrop        byte = 2
	recInsert      byte = 3
	recInsertBatch byte = 4
	recDelete      byte = 5
	recRestore     byte = 6
	recGrow        byte = 7
	recFold        byte = 8
)

// errStopReplay is returned by replay callbacks to end the WAL scan
// without reporting a scan error (e.g. after a Drop record).
var errStopReplay = errors.New("store: stop replay")

func walFileName(startSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", startSeq)
}

// parseWALFileName returns the start sequence encoded in a WAL file name.
func parseWALFileName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".log")
	if !ok || len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// walFileRef is one WAL file with the sequence its name encodes.
type walFileRef struct {
	start uint64
	path  string
}

// writeWALHeader writes the fixed file header for a log whose first
// record will carry startSeq.
func writeWALHeader(w io.Writer, startSeq uint64) error {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:], startSeq)
	_, err := w.Write(hdr[:])
	return err
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// appendRow encodes one (key, attrs) row.
func appendRow(dst []byte, key uint64, attrs []uint64) []byte {
	dst = appendU64(dst, key)
	dst = appendU32(dst, uint32(len(attrs)))
	for _, a := range attrs {
		dst = appendU64(dst, a)
	}
	return dst
}

// appendBatch encodes an insert batch body.
func appendBatch(dst []byte, keys []uint64, attrs [][]uint64) []byte {
	dst = appendU32(dst, uint32(len(keys)))
	for i, k := range keys {
		dst = appendRow(dst, k, attrs[i])
	}
	return dst
}

var errCorruptRecord = errors.New("store: corrupt record body")

// decodeRow decodes one row, returning the remaining bytes. The attrs
// slice is freshly allocated (replay hands it to Filter.Insert, which may
// retain nothing, but the row outlives the scan buffer either way).
func decodeRow(b []byte) (key uint64, attrs []uint64, rest []byte, err error) {
	if len(b) < 12 {
		return 0, nil, nil, errCorruptRecord
	}
	key = binary.LittleEndian.Uint64(b)
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if n < 0 || len(b) < 8*n {
		return 0, nil, nil, errCorruptRecord
	}
	attrs = make([]uint64, n)
	for i := range attrs {
		attrs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return key, attrs, b[8*n:], nil
}

// eachBatchRow decodes an InsertBatch body and calls fn once per row, in
// order, so recovery and the fold share one decoder and keep their own
// error policies. It returns errCorruptRecord (or decodeRow's error) for
// a malformed body, after fn has seen the rows before the damage, and
// stops at the first error fn returns.
func eachBatchRow(body []byte, fn func(key uint64, attrs []uint64) error) error {
	if len(body) < 4 {
		return errCorruptRecord
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	for i := 0; i < n; i++ {
		key, attrs, rest, err := decodeRow(body)
		if err != nil {
			return err
		}
		if err := fn(key, attrs); err != nil {
			return err
		}
		body = rest
	}
	if len(body) != 0 {
		return errCorruptRecord
	}
	return nil
}

// walRecord is one decoded WAL frame.
type walRecord struct {
	seq  uint64
	typ  byte
	body []byte
}

// scanWALFile iterates the intact records of one WAL file in order,
// calling fn for each. It returns the byte length of the valid prefix
// (including the header), the header's start sequence, a tail error when
// the file ends in a torn or corrupt frame (recoverable: the caller
// truncates to validLen), and a hard error when the file cannot be read,
// its header is invalid, or fn failed. fn returning errStopReplay ends
// the scan cleanly.
func scanWALFile(path string, fn func(walRecord) error) (validLen int64, startSeq uint64, tailErr, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(data) < walHeaderSize {
		return 0, 0, errors.New("store: torn WAL header"), nil
	}
	if binary.LittleEndian.Uint32(data) != walMagic {
		return 0, 0, nil, errors.New("store: bad WAL magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != walVersion {
		return 0, 0, nil, fmt.Errorf("store: unsupported WAL version %d", v)
	}
	startSeq = binary.LittleEndian.Uint64(data[8:])
	off := walHeaderSize
	for {
		if off == len(data) {
			return int64(off), startSeq, nil, nil
		}
		if off+8 > len(data) {
			return int64(off), startSeq, errors.New("store: torn frame header"), nil
		}
		l := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if l < 9 || int64(l) > maxWALFrame || uint64(l) > uint64(len(data)-off-8) {
			return int64(off), startSeq, fmt.Errorf("store: torn frame (len %d)", l), nil
		}
		payload := data[off+8 : off+8+int(l)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return int64(off), startSeq, errors.New("store: frame CRC mismatch"), nil
		}
		rec := walRecord{typ: payload[0], seq: binary.LittleEndian.Uint64(payload[1:]), body: payload[9:]}
		if err := fn(rec); err != nil {
			if errors.Is(err, errStopReplay) {
				return int64(off) + 8 + int64(l), startSeq, nil, nil
			}
			return int64(off), startSeq, nil, err
		}
		off += 8 + int(l)
	}
}
