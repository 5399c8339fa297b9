package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// This file is the elastic-capacity engine. A fixed-size cuckoo filter
// cannot grow in place: bucket indexes are hash bits of the original key,
// and once a row is reduced to its |κ|-bit fingerprint the extra index
// bits a bigger table needs are gone. The Ladder sidesteps that the way
// the dynamic cuckoo-filter literature does (Zentgraf et al., "Smaller
// and More Flexible Cuckoo Filters"): it keeps an ordered list of filter
// levels with identical parameters except a geometrically growing bucket
// count. Inserts target the newest (largest) level; when a cuckoo
// insertion exhausts its kicks there — or a chained insert hits Lmax —
// a fresh level opens and absorbs the row. Queries probe newest→oldest
// with early exit, so the no-false-negative guarantee holds across every
// level while the common case (one level, or a hit in the newest) stays
// a single-filter probe.
//
// Opening a level appends to the level list in place, so Grow (and an
// Insert that grows) needs the same exclusion from concurrent readers as
// any other mutation, e.g. the shard layer's per-shard write lock.
// Folding — collapsing a grown ladder back into one right-sized level —
// needs the original keys and therefore lives in the layers that still
// have them: internal/store rebuilds from WAL replay and swaps the result
// in through the Restore path.

// ErrMaxLevels reports a grow request on a ladder already at its
// MaxLevels budget (Insert surfaces the underlying ErrFull instead).
var ErrMaxLevels = errors.New("ccf: ladder at MaxLevels; cannot grow")

// maxLadderLevels bounds decoded level counts so a corrupt envelope
// cannot drive a huge allocation; 64 doublings overflow any table long
// before this.
const maxLadderLevels = 64

// LadderOptions configures elastic growth.
type LadderOptions struct {
	// MaxLevels is the total number of levels the ladder may hold,
	// counting the base level. 0 or 1 disables growth: the ladder behaves
	// exactly like its base filter and Insert returns ErrFull/
	// ErrChainLimit as usual.
	MaxLevels int
	// GrowthFactor multiplies the bucket count per new level. 0 means 2
	// (doubling); values are clamped to at least 2 and rounded up to a
	// power of two by the bucket sizing itself.
	GrowthFactor int
}

func (o LadderOptions) normalized() LadderOptions {
	if o.MaxLevels < 1 {
		o.MaxLevels = 1
	}
	if o.MaxLevels > maxLadderLevels {
		o.MaxLevels = maxLadderLevels
	}
	if o.GrowthFactor < 2 {
		o.GrowthFactor = 2
	}
	return o
}

// Ladder is an elastically sized conditional cuckoo filter: an ordered
// list of *Filter levels sharing one parameter set (and seed) with a
// geometrically growing bucket count. Like Filter it is safe for
// concurrent queries but not for a mutation concurrent with anything
// else: Insert, Delete, Grow and SetOptions need exclusive access, since
// opening a level appends to the level list in place.
type Ladder struct {
	opts  LadderOptions
	lv    []*Filter // levels, oldest first
	grows int       // cumulative level openings, surviving marshal round trips
}

// NewLadder returns a one-level ladder whose base filter is configured
// by p (see New) and whose growth budget comes from opts.
func NewLadder(p Params, opts LadderOptions) (*Ladder, error) {
	f, err := New(p)
	if err != nil {
		return nil, err
	}
	return LadderFromFilter(f, opts), nil
}

// LadderFromFilter wraps an existing filter as a ladder's base level.
func LadderFromFilter(f *Filter, opts LadderOptions) *Ladder {
	return &Ladder{opts: opts.normalized(), lv: []*Filter{f}}
}

// Levels returns the number of levels currently open.
func (l *Ladder) Levels() int { return len(l.lv) }

// Grows returns the cumulative number of level openings, including those
// recorded before a marshal round trip.
func (l *Ladder) Grows() int { return l.grows }

// Options returns the ladder's growth budget.
func (l *Ladder) Options() LadderOptions { return l.opts }

// SetOptions replaces the growth budget at runtime (callers hold the
// writer side of whatever excludes mutations). Shrinking MaxLevels below
// the current level count keeps the open levels but stops further growth.
func (l *Ladder) SetOptions(opts LadderOptions) { l.opts = opts.normalized() }

// Params returns the base level's effective parameters. All levels share
// every parameter except Buckets.
func (l *Ladder) Params() Params { return l.lv[0].Params() }

// openLevel appends a fresh level whose bucket count is the newest
// level's times GrowthFactor.
func (l *Ladder) openLevel() (*Filter, error) {
	lv := l.lv
	if len(lv) >= l.opts.MaxLevels {
		return nil, ErrMaxLevels
	}
	newest := lv[len(lv)-1]
	m := uint64(newest.NumBuckets()) * uint64(l.opts.GrowthFactor)
	if m > maxBuckets {
		return nil, fmt.Errorf("ccf: growing past %d buckets exceeds the 2^31 bucket limit", newest.NumBuckets())
	}
	p := newest.Params()
	p.Buckets = uint32(m)
	nf, err := New(p)
	if err != nil {
		return nil, err
	}
	l.lv = append(lv, nf)
	l.grows++
	return nf, nil
}

// Grow opens a new level unconditionally (subject to MaxLevels). It is
// the proactive form used by policy layers that grow before the newest
// level starts failing kicks; Insert grows reactively on its own.
func (l *Ladder) Grow() error {
	_, err := l.openLevel()
	return err
}

// Insert adds a row to the newest level, opening a new level and
// retrying there when the insertion fails with ErrFull or ErrChainLimit
// and the MaxLevels budget allows. With growth exhausted (or disabled)
// the newest level's error is returned unchanged. A row counts as
// discarded (Discarded) only when Insert itself returns ErrChainLimit:
// a row retried on a new level is stored there.
//
// Each level keeps its own chained-insert run (see Filter.Insert), so a
// key's rows resume their chain walk in the newest level, including
// after a level opens mid-run.
//
// Deduplication is per level: re-inserting a row whose copy lives in an
// older level stores a second copy in the newest (probing every level on
// insert would cost a full query per row, the standard dynamic-filter
// trade). The duplicate wastes a slot and is counted by Rows again, but
// queries are unaffected and a fold collapses duplicates away; Plain
// callers pairing each Insert with one Delete should note a Delete
// removes the newest copy first.
func (l *Ladder) Insert(key uint64, attrs []uint64) error {
	for {
		newest := l.lv[len(l.lv)-1]
		err := newest.insert(key, attrs)
		if err != ErrFull && err != ErrChainLimit {
			return err
		}
		if _, gerr := l.openLevel(); gerr != nil {
			if err == ErrChainLimit {
				newest.discarded++
			}
			return err
		}
	}
}

// Delete removes one copy of the row (Plain variant only), probing
// newest→oldest for the level that holds it.
func (l *Ladder) Delete(key uint64, attrs []uint64) error {
	lv := l.lv
	for i := len(lv) - 1; i >= 0; i-- {
		err := lv[i].Delete(key, attrs)
		if err != ErrNotFound {
			return err
		}
	}
	return ErrNotFound
}

// Query reports whether any level may contain a matching row. Like
// Filter.Query, an invalid predicate conservatively yields true.
func (l *Ladder) Query(key uint64, pred Predicate) bool {
	lv := l.lv
	if pred.Validate(lv[0].Params().NumAttrs) != nil {
		return true
	}
	for i := len(lv) - 1; i >= 0; i-- {
		if lv[i].QueryUnchecked(key, pred) {
			return true
		}
	}
	return false
}

// QueryUnchecked is Query without predicate validation; pred must have
// passed Validate for the ladder's NumAttrs.
func (l *Ladder) QueryUnchecked(key uint64, pred Predicate) bool {
	lv := l.lv
	for i := len(lv) - 1; i >= 0; i-- {
		if lv[i].QueryUnchecked(key, pred) {
			return true
		}
	}
	return false
}

// QueryKey reports whether any row with the key may exist in any level.
func (l *Ladder) QueryKey(key uint64) bool {
	lv := l.lv
	for i := len(lv) - 1; i >= 0; i-- {
		if lv[i].QueryKey(key) {
			return true
		}
	}
	return false
}

// ladderBatch is the reusable pending-index scratch of one multi-level
// batch probe; it cycles through a pool so steady-state ladder batches
// allocate nothing (single-level ladders never touch it).
type ladderBatch struct {
	pend []int32
}

var ladderPool = sync.Pool{New: func() any { return new(ladderBatch) }}

// pendingFalse collects into dst the output indexes still false after
// the newest level's pass — the keys older levels still need to answer.
func pendingFalse(dst []int32, out []bool, n int, idxs []int32) []int32 {
	if idxs == nil {
		for i := 0; i < n; i++ {
			if !out[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range idxs {
		if !out[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// keepFalse compacts pend in place to the indexes still false.
func keepFalse(pend []int32, out []bool) []int32 {
	kept := pend[:0]
	for _, i := range pend {
		if !out[i] {
			kept = append(kept, i)
		}
	}
	return kept
}

// QueryBatchIdxWalk is the ladder's one batch walker: the newest level
// runs the full tile pipeline, then each older level probes only the
// keys still negative (early exit per key, matching the scalar
// newest→oldest order). See Filter.QueryBatchIdx for the idxs contract;
// pred must already have passed Validate for the ladder's NumAttrs.
//
// Key membership is the empty predicate. Only KeyView clones carry
// tombstones and Delete clears slots, so on a ladder every occupied slot
// holding the key's fingerprint matches an empty predicate, and the walk
// answers exactly what QueryKey answers for every variant.
//
// The result is the walk depth: the number of levels actually probed
// before every key resolved (at least 1; older levels skipped by the
// early exit don't count). Tracing attaches it as a span attribute so a
// deep-ladder tail is distinguishable from a slow level; untraced callers
// ignore it.
func (l *Ladder) QueryBatchIdxWalk(out []bool, keys []uint64, idxs []int32, pred Predicate) int {
	lv := l.lv
	last := len(lv) - 1
	lv[last].QueryBatchIdx(out, keys, idxs, pred)
	if last == 0 {
		return 1
	}
	walked := 1
	lb := ladderPool.Get().(*ladderBatch)
	pend := pendingFalse(lb.pend[:0], out, len(keys), idxs)
	for li := last - 1; li >= 0 && len(pend) > 0; li-- {
		lv[li].QueryBatchIdx(out, keys, pend, pred)
		walked++
		if li > 0 {
			pend = keepFalse(pend, out)
		}
	}
	lb.pend = pend
	ladderPool.Put(lb)
	return walked
}

// QueryBatchInto answers Query for every key under one predicate,
// writing results into dst (grown if its capacity is short). Zero-alloc
// in steady state when dst is recycled.
func (l *Ladder) QueryBatchInto(dst []bool, keys []uint64, pred Predicate) []bool {
	out := boolResults(dst, len(keys))
	if len(keys) == 0 {
		return out
	}
	if pred.Validate(l.Params().NumAttrs) != nil {
		for i := range out {
			out[i] = true
		}
		return out
	}
	l.QueryBatchIdxWalk(out, keys, nil, pred)
	return out
}

// Aggregate accessors.

// Rows returns the rows accepted across all levels.
func (l *Ladder) Rows() int {
	n := 0
	for _, f := range l.lv {
		n += f.Rows()
	}
	return n
}

// OccupiedEntries returns the occupied entries across all levels.
func (l *Ladder) OccupiedEntries() int {
	n := 0
	for _, f := range l.lv {
		n += f.OccupiedEntries()
	}
	return n
}

// Capacity returns the total entry slots across all levels.
func (l *Ladder) Capacity() int {
	n := 0
	for _, f := range l.lv {
		n += f.Capacity()
	}
	return n
}

// LoadFactor returns occupied / capacity across all levels.
func (l *Ladder) LoadFactor() float64 {
	return float64(l.OccupiedEntries()) / float64(l.Capacity())
}

// NewestLoadFactor returns the newest level's load factor — the number
// proactive-grow policies watch, since only the newest level absorbs
// inserts.
func (l *Ladder) NewestLoadFactor() float64 {
	lv := l.lv
	return lv[len(lv)-1].LoadFactor()
}

// SizeBits returns the total packed sketch size across all levels.
func (l *Ladder) SizeBits() int64 {
	var n int64
	for _, f := range l.lv {
		n += f.SizeBits()
	}
	return n
}

// Discarded returns the rows dropped at the chain limit across levels.
func (l *Ladder) Discarded() int {
	n := 0
	for _, f := range l.lv {
		n += f.Discarded()
	}
	return n
}

// LadderStats aggregates ladder occupancy plus the per-level breakdown
// the auto-grow and fold policies read.
type LadderStats struct {
	Levels      int           `json:"levels"`
	Grows       int           `json:"grows"`
	Rows        int           `json:"rows"`
	Occupied    int           `json:"occupied"`
	Capacity    int           `json:"capacity"`
	FreeSlots   int           `json:"free_slots"`
	EstHeadroom int           `json:"est_headroom"`
	LoadFactor  float64       `json:"load_factor"`
	SizeBits    int64         `json:"size_bits"`
	PerLevel    []FilterStats `json:"per_level"`
}

// Stats returns aggregate and per-level occupancy.
func (l *Ladder) Stats() LadderStats {
	lv := l.lv
	st := LadderStats{Levels: len(lv), Grows: l.grows, PerLevel: make([]FilterStats, len(lv))}
	for i, f := range lv {
		fs := f.Stats()
		st.PerLevel[i] = fs
		st.Rows += fs.Rows
		st.Occupied += fs.Occupied
		st.Capacity += fs.Capacity
		st.FreeSlots += fs.FreeSlots
		st.EstHeadroom += fs.EstHeadroom
		st.SizeBits += fs.SizeBits
	}
	if st.Capacity > 0 {
		st.LoadFactor = float64(st.Occupied) / float64(st.Capacity)
	}
	return st
}

// Binary format (little-endian):
//
//	magic "CCL1" | version | maxLevels | growthFactor | grows | nLevels |
//	{u64 payload length | Filter.MarshalBinary payload} per level
//
// UnmarshalBinary also accepts a bare Filter payload ("CCF1") as a
// one-level ladder with growth disabled, so snapshots and checkpoint
// segments written before the elastic-capacity engine still recover.
const ladderMagic = 0x314C4343 // "CCL1"

const ladderVersion = 1

// MarshalBinary encodes the ladder: a versioned envelope around each
// level's filter payload.
func (l *Ladder) MarshalBinary() ([]byte, error) {
	lv := l.lv
	var buf bytes.Buffer
	w := func(vs ...uint64) {
		for _, v := range vs {
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], v)
			buf.Write(tmp[:])
		}
	}
	w(ladderMagic, ladderVersion, uint64(l.opts.MaxLevels), uint64(l.opts.GrowthFactor),
		uint64(l.grows), uint64(len(lv)))
	for _, f := range lv {
		b, err := f.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w(uint64(len(b)))
		buf.Write(b)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a ladder produced by MarshalBinary, or a bare
// Filter payload as a one-level ladder (growth disabled).
func (l *Ladder) UnmarshalBinary(data []byte) error {
	if len(data) >= 8 && binary.LittleEndian.Uint64(data) == marshalMagic {
		f := new(Filter)
		if err := f.UnmarshalBinary(data); err != nil {
			return err
		}
		*l = *LadderFromFilter(f, LadderOptions{MaxLevels: 1})
		return nil
	}
	r := &reader{data: data}
	if r.u64() != ladderMagic {
		if r.err != nil {
			return r.err
		}
		return errors.New("ccf: bad ladder magic")
	}
	if v := r.u64(); v != ladderVersion {
		if r.err != nil {
			return r.err
		}
		return fmt.Errorf("ccf: unsupported ladder version %d", v)
	}
	opts := LadderOptions{MaxLevels: int(r.u64()), GrowthFactor: int(r.u64())}
	grows := int(r.u64())
	n := r.u64()
	if r.err != nil {
		return r.err
	}
	if n == 0 || n > maxLadderLevels {
		return fmt.Errorf("ccf: corrupt ladder level count %d", n)
	}
	if grows < 0 {
		return fmt.Errorf("ccf: corrupt ladder grow count %d", grows)
	}
	lv := make([]*Filter, 0, n)
	for i := uint64(0); i < n; i++ {
		blen := int(r.u64())
		bb := r.bytes(blen)
		if r.err != nil {
			return r.err
		}
		f := new(Filter)
		if err := f.UnmarshalBinary(bb); err != nil {
			return fmt.Errorf("ccf: ladder level %d: %w", i, err)
		}
		lv = append(lv, f)
	}
	if r.off != len(data) {
		return fmt.Errorf("ccf: %d trailing ladder bytes", len(data)-r.off)
	}
	no := opts.normalized()
	// A ladder that grew to more levels than the (possibly clamped)
	// budget still decodes; it just cannot grow further.
	*l = Ladder{opts: no, lv: lv, grows: grows}
	return nil
}
