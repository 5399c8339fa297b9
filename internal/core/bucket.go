package core

import (
	"slices"

	"ccf/internal/bloom"
)

// This file is the packed bucket storage engine. A bucketTable owns every
// entry of the filter in bucket-contiguous slices: a bucket's BucketSize
// key fingerprints are adjacent in fps, flags sit alongside, attribute
// vectors are bucket-contiguous in attrs, and variable-size Bloom
// sketches live in an arena slice that slots reference by index instead
// of per-slot Go pointers. The layout follows the packed designs of the
// cuckoo-filter literature (Eppstein's simplified cuckoo filter,
// Cuckoo-GPU): a probe reads the fingerprints of both candidate buckets,
// then only a hit slot's flags byte and attribute vector, with no
// closure calls or pointer chasing on the hot path.

// sketchNone marks a slot that references no arena sketch.
const sketchNone = int32(-1)

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
}

func newSketchRefs(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = sketchNone
	}
	return s
}

// bucketHasFp reports whether any slot of the bucket holds fp.
func (t *bucketTable) bucketHasFp(bucket uint32, fp uint16) bool {
	base := int(bucket) * t.bsz
	return slices.Contains(t.fps[base:base+t.bsz], fp)
}

// emptySlotInBucket returns the flat index of an empty slot in bucket, or
// -1.
func (t *bucketTable) emptySlotInBucket(bucket uint32) int {
	base := int(bucket) * t.bsz
	if j := slices.Index(t.fps[base:base+t.bsz], 0); j >= 0 {
		return base + j
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
	run   chainRun // the chained insert's walk, resumed while the key repeats
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
	f.fps[idx], c.fp = c.fp, f.fps[idx]
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
