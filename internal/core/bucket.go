package core

import (
	"errors"
	"fmt"

	"ccf/internal/bloom"
)

// This file is the packed bucket storage engine. A bucketTable owns every
// entry of the filter in bucket-contiguous slices: a bucket's BucketSize
// key fingerprints are adjacent in fps (and, when BucketSize is 4,
// mirrored into one uint64 word per bucket for branch-free whole-bucket
// compares), flags sit alongside, attribute vectors are bucket-contiguous
// in attrs, and variable-size Bloom sketches live in an arena slice that
// slots reference by index instead of per-slot Go pointers. The layout
// follows the word-packed designs of the cuckoo-filter literature
// (Eppstein's simplified cuckoo filter, Cuckoo-GPU): probe cost comes down
// to one cache line per bucket and a handful of ALU ops, with no closure
// calls or pointer chasing on the hot path.

// sketchNone marks a slot that references no arena sketch.
const sketchNone = int32(-1)

// packedBucketSize is the bucket size whose fingerprints fit exactly one
// 64-bit word (4 lanes × 16 bits); only this size gets the word mirror.
const packedBucketSize = 4

// Lane constants for the SWAR has-zero-uint16 trick: laneLo has the low
// bit of each 16-bit lane set, laneHi the high bit.
const (
	laneLo = 0x0001_0001_0001_0001
	laneHi = 0x8000_8000_8000_8000
)

// wordHasZeroLane reports whether any 16-bit lane of w is zero, using the
// classic (w - lo) & ^w & hi test. The "is there any" form is exact; only
// the per-lane mask variant of the trick can over-report, so callers that
// need the matching lane follow up with a 4-iteration scalar scan.
func wordHasZeroLane(w uint64) bool {
	return (w-laneLo)&^w&laneHi != 0
}

// wordHasLane reports whether any 16-bit lane of w equals fp: XOR
// broadcasts fp into every lane, reducing equality to the zero test.
func wordHasLane(w uint64, fp uint16) bool {
	return wordHasZeroLane(w ^ uint64(fp)*laneLo)
}

// laneHits returns the exact per-lane equality mask of w against the
// fingerprint broadcast in fpw: bit j is set iff 16-bit lane j matches.
// Adding 0x7fff to a lane's low 15 bits cannot carry into the next lane,
// so unlike wordHasZeroLane's borrow form this zero test never
// over-reports; one multiply then gathers the four lane indicators
// (bits 15, 31, 47, 63) into bits 45–48 without any two partial
// products colliding.
func laneHits(w, fpw uint64) uint8 {
	z := w ^ fpw
	zero := ^((z&^laneHi + ^uint64(laneHi)) | z) & laneHi
	return uint8((zero >> 15) * (1 | 1<<15 | 1<<30 | 1<<45) >> 45)
}

// load4 packs four consecutive fingerprints into one word, lane j =
// s[j]; the compiler merges the loads into a single 8-byte read.
func load4(s []uint16) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<16 | uint64(s[2])<<32 | uint64(s[3])<<48
}

// bucketTable is the packed slot storage of a Filter. Slot idx lives in
// bucket idx/bsz; its attribute vector occupies attrs[idx*nattr:] and its
// sketch, if any, is arena[sketch[idx]].
type bucketTable struct {
	bsz   int // slots per bucket (Params.BucketSize)
	nattr int // attribute columns per slot (Params.NumAttrs)

	fps    []uint16        // m·b key fingerprints; 0 = empty slot
	flags  []uint8         // m·b entry flags
	attrs  []uint16        // m·b·nattr attribute fingerprints (vector variants)
	sketch []int32         // m·b arena references (Bloom/Mixed variants)
	arena  []*bloom.Filter // sketch arena: per-entry sketches and shared group sketches

	// words mirrors fps one uint64 per bucket when bsz ==
	// packedBucketSize, enabling the branch-free whole-bucket compare.
	// Every point write must go through setFp to keep it in sync; bulk
	// loaders call rebuildWords once instead.
	words []uint64
}

// initTable allocates the table for m buckets under p.
func (t *bucketTable) initTable(m uint32, p Params) {
	n := int(m) * p.BucketSize
	t.bsz = p.BucketSize
	t.nattr = p.NumAttrs
	t.fps = make([]uint16, n)
	t.flags = make([]uint8, n)
	switch p.Variant {
	case VariantBloom:
		t.sketch = newSketchRefs(n)
	case VariantMixed:
		t.attrs = make([]uint16, n*p.NumAttrs)
		t.sketch = newSketchRefs(n)
	default:
		t.attrs = make([]uint16, n*p.NumAttrs)
	}
	if t.bsz == packedBucketSize {
		t.words = make([]uint64, m)
	}
}

func newSketchRefs(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = sketchNone
	}
	return s
}

// setFp writes one fingerprint, keeping the packed word mirror in sync.
func (t *bucketTable) setFp(idx int, fp uint16) {
	t.fps[idx] = fp
	if t.words != nil {
		shift := uint(idx&(packedBucketSize-1)) * 16
		w := &t.words[idx/packedBucketSize]
		*w = *w&^(uint64(0xffff)<<shift) | uint64(fp)<<shift
	}
}

// rebuildWords recomputes the word mirror after a bulk load of fps
// (unmarshal, thaw, compress, view cloning).
func (t *bucketTable) rebuildWords() {
	if t.bsz != packedBucketSize {
		t.words = nil
		return
	}
	if t.words == nil {
		t.words = make([]uint64, len(t.fps)/packedBucketSize)
	}
	for i := range t.words {
		t.words[i] = load4(t.fps[i*packedBucketSize:])
	}
}

// checkWords verifies the word mirror's structural invariant: every
// packed bucket's word is exactly its four fingerprints, lane j = slot j.
// The batch compare kernels trust the mirror completely (they never read
// fps on a miss), so bulk-load paths (grow, fold, unmarshal, thaw) are
// tested against this after rebuildWords.
func (t *bucketTable) checkWords() error {
	if t.bsz != packedBucketSize {
		if t.words != nil {
			return fmt.Errorf("core: word mirror present with bucket size %d", t.bsz)
		}
		return nil
	}
	if t.words == nil {
		return errors.New("core: packed table missing its word mirror")
	}
	if len(t.words)*packedBucketSize != len(t.fps) {
		return fmt.Errorf("core: word mirror has %d buckets for %d slots",
			len(t.words), len(t.fps))
	}
	for i := range t.words {
		if want := load4(t.fps[i*packedBucketSize:]); t.words[i] != want {
			return fmt.Errorf("core: word mirror of bucket %d is %#x, want %#x",
				i, t.words[i], want)
		}
	}
	return nil
}

// bucketMayContain is the branch-free pre-test: false means no slot of the
// bucket holds fp (exact for the packed layout); true means a scalar scan
// is needed. Tables without a word mirror always scan.
func (t *bucketTable) bucketMayContain(bucket uint32, fp uint16) bool {
	if t.words != nil {
		return wordHasLane(t.words[bucket], fp)
	}
	return true
}

// bucketHasFp reports exactly whether any slot of the bucket holds fp.
// For the packed layout the word test alone answers it; otherwise a
// scalar scan over the bucket's contiguous fingerprints.
func (t *bucketTable) bucketHasFp(bucket uint32, fp uint16) bool {
	if t.words != nil {
		return wordHasLane(t.words[bucket], fp)
	}
	base := int(bucket) * t.bsz
	for j := 0; j < t.bsz; j++ {
		if t.fps[base+j] == fp {
			return true
		}
	}
	return false
}

// maxMaskSlots is the largest bucket size slotMask covers: its hit masks
// are one byte per bucket.
const maxMaskSlots = 8

// slotMask returns the bucket's exact per-slot hit mask for the
// fingerprint broadcast in fpw (bit j set iff slot j holds it). The
// packed layout compares its word mirror; sizes 5–8 compare two
// overlapping 4-lane windows, slots 0–3 and b−4…b−1, which stay inside
// the bucket and OR together idempotently; sizes below 4 scan. Bucket
// sizes above maxMaskSlots are not supported.
func (t *bucketTable) slotMask(bucket uint32, fpw uint64) uint8 {
	if t.words != nil {
		return laneHits(t.words[bucket], fpw)
	}
	base := int(bucket) * t.bsz
	s := t.fps[base : base+t.bsz]
	if len(s) < packedBucketSize {
		var m uint8
		for j, v := range s {
			if v == uint16(fpw) {
				m |= 1 << j
			}
		}
		return m
	}
	hi := len(s) - packedBucketSize
	return laneHits(load4(s), fpw) | laneHits(load4(s[hi:]), fpw)<<hi
}

// emptySlotInBucket returns the flat index of an empty slot in bucket, or
// -1, pre-screened by the packed zero-lane test.
func (t *bucketTable) emptySlotInBucket(bucket uint32) int {
	if t.words != nil && !wordHasZeroLane(t.words[bucket]) {
		return -1
	}
	base := int(bucket) * t.bsz
	for j := 0; j < t.bsz; j++ {
		if t.fps[base+j] == 0 {
			return base + j
		}
	}
	return -1
}

// addSketch appends bf to the arena and returns its reference. The arena
// is grow-only: the sketched variants do not support deletion, so a
// reference, once stored in a slot, stays valid for the filter's lifetime.
func (t *bucketTable) addSketch(bf *bloom.Filter) int32 {
	t.arena = append(t.arena, bf)
	return int32(len(t.arena) - 1)
}

// popSketch removes the most recently added sketch; it is the rollback
// for an insertion that reserved an arena slot and then failed its kicks.
func (t *bucketTable) popSketch() {
	t.arena = t.arena[:len(t.arena)-1]
}

// sketchAt returns the sketch behind a slot reference, or nil.
func (t *bucketTable) sketchAt(ref int32) *bloom.Filter {
	if ref == sketchNone {
		return nil
	}
	return t.arena[ref]
}

// carried is an entry in flight during a kick chain. Each filter owns one
// reusable instance (probeScratch) so steady-state inserts allocate
// nothing.
type carried struct {
	fp     uint16
	flag   uint8
	attr   []uint16
	sketch int32
}

// probeScratch is the per-filter reusable state of the mutation paths.
// Mutations require external exclusive locking (the Filter contract), so
// a single instance suffices; query paths never touch it, keeping
// concurrent readers safe.
type probeScratch struct {
	carry carried
	vec   []uint16 // attribute vector staging for Delete
	path  []int32  // kick path for rollback
}

func (s *probeScratch) init(t *bucketTable) {
	if t.attrs != nil {
		s.carry.attr = make([]uint16, t.nattr)
	}
	s.carry.sketch = sketchNone
	s.vec = make([]uint16, t.nattr)
}

// resetCarried prepares the scratch carried entry for a new insertion.
func (f *Filter) resetCarried() *carried {
	c := &f.scratch.carry
	c.fp = 0
	c.flag = 0
	c.sketch = sketchNone
	return c
}

// swapEntry exchanges the slot's contents with c.
func (f *Filter) swapEntry(idx int, c *carried) {
	old := f.fps[idx]
	f.setFp(idx, c.fp)
	c.fp = old
	f.flags[idx], c.flag = c.flag, f.flags[idx]
	if f.attrs != nil {
		base := idx * f.nattr
		for j := 0; j < f.nattr; j++ {
			f.attrs[base+j], c.attr[j] = c.attr[j], f.attrs[base+j]
		}
	}
	if f.sketch != nil {
		f.sketch[idx], c.sketch = c.sketch, f.sketch[idx]
	}
}
