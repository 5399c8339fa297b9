package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ccf/internal/bitset"
)

// Frozen is an immutable, bit-packed snapshot of a vector-variant CCF
// (Plain or Chained). It realizes the paper's storage optimization (§9):
// the table is "an open addressing hash table, and can be directly stored
// as such", with key fingerprints packed at |κ| bits per entry and
// "attribute fingerprints ... stored on disk in a columnar format so that
// at query time, only the relevant predicates need to be read".
//
// A Frozen filter answers exactly the same queries as its source — the
// freeze/thaw tests assert bitwise-identical results — while occupying the
// packed size the paper's formulas account for, instead of Go struct
// overhead. It serializes with MarshalBinary.
type Frozen struct {
	header *Filter // geometry and hashing only; carries no entry storage

	keys *bitset.Bits   // capacity × |κ|
	cols []*bitset.Bits // one column per attribute, capacity × |α| each

	occupied int
	rows     int
}

// Freeze packs the filter. Only the fingerprint-vector variants freeze:
// Bloom sketches and conversion groups are variable-size per entry.
// Predicate views (tombstoned filters) cannot be frozen either; freeze the
// source filter and re-derive the view instead.
func (f *Filter) Freeze() (*Frozen, error) {
	if f.p.Variant != VariantPlain && f.p.Variant != VariantChained {
		return nil, ErrUnsupported
	}
	for _, fl := range f.flags {
		if fl != 0 {
			return nil, errors.New("ccf: cannot freeze a filter with tombstoned entries")
		}
	}
	capEntries := f.Capacity()
	fr := &Frozen{
		header:   f.headerClone(),
		keys:     bitset.New(capEntries * f.p.KeyBits),
		cols:     make([]*bitset.Bits, f.p.NumAttrs),
		occupied: f.occupied,
		rows:     f.rows,
	}
	for j := range fr.cols {
		fr.cols[j] = bitset.New(capEntries * f.p.AttrBits)
	}
	for idx := 0; idx < capEntries; idx++ {
		fr.keys.PutUint(idx*f.p.KeyBits, f.p.KeyBits, uint64(f.fps[idx]))
		base := idx * f.p.NumAttrs
		for j := 0; j < f.p.NumAttrs; j++ {
			fr.cols[j].PutUint(idx*f.p.AttrBits, f.p.AttrBits, uint64(f.attrs[base+j]))
		}
	}
	return fr, nil
}

// headerClone copies geometry, parameters and hashing state without entry
// storage; the clone's derivation methods (fingerprint, buckets, chain
// walk) behave identically to the source's. The bucketTable geometry is
// carried so probe arithmetic stays valid, but no slot slices are.
func (f *Filter) headerClone() *Filter {
	h := &Filter{
		p:            f.p,
		m:            f.m,
		mask:         f.mask,
		fpMask:       f.fpMask,
		attrMask:     f.attrMask,
		altOff:       f.altOff, // immutable; same seed and geometry
		origAttrBits: f.origAttrBits,
	}
	h.bsz = f.bsz
	h.nattr = f.nattr
	return h
}

// keyAt returns the packed fingerprint of entry idx.
func (fr *Frozen) keyAt(idx int) uint16 {
	return uint16(fr.keys.Uint(idx*fr.header.p.KeyBits, fr.header.p.KeyBits))
}

// attrAt returns the packed attribute fingerprint of column j at entry idx.
func (fr *Frozen) attrAt(j, idx int) uint16 {
	return uint16(fr.cols[j].Uint(idx*fr.header.p.AttrBits, fr.header.p.AttrBits))
}

// matches checks pred against the entry's columns, touching only the
// predicate's columns (the columnar-read benefit of §9).
func (fr *Frozen) matches(idx int, pred Predicate) bool {
	h := fr.header
	for _, c := range pred {
		got := fr.attrAt(c.Attr, idx)
		ok := false
		for _, v := range c.Values {
			if got == h.attrFingerprint(c.Attr, v) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Query reports whether a row with the key satisfying pred may be present,
// with identical semantics to Filter.Query on the source filter.
func (fr *Frozen) Query(key uint64, pred Predicate) bool {
	h := fr.header
	if err := pred.Validate(h.p.NumAttrs); err != nil {
		return true
	}
	fp := h.fingerprint(key)
	home := h.homeBucket(key)
	if h.p.Variant == VariantPlain {
		return fr.queryPair(fp, home, pred)
	}
	var seq chainSeq
	h.initChainSeq(&seq, fp, home)
	for {
		l1, l2 := seq.buckets()
		count, match := fr.bucketCountMatch(l1, fp, pred)
		if l2 != l1 {
			c2, m2 := fr.bucketCountMatch(l2, fp, pred)
			count += c2
			match = match || m2
		}
		if match {
			return true
		}
		if count < h.p.MaxDupes {
			return false
		}
		if !seq.advance() {
			return true
		}
	}
}

// bucketCountMatch mirrors Filter.bucketCountMatch over the bit-packed
// columns: copies of κ in the bucket, and whether any satisfies pred.
func (fr *Frozen) bucketCountMatch(bucket uint32, fp uint16, pred Predicate) (int, bool) {
	b := fr.header.p.BucketSize
	base := int(bucket) * b
	count := 0
	match := false
	for j := 0; j < b; j++ {
		if fr.keyAt(base+j) != fp {
			continue
		}
		count++
		if !match && fr.matches(base+j, pred) {
			match = true
		}
	}
	return count, match
}

func (fr *Frozen) bucketMatch(bucket uint32, fp uint16, pred Predicate) bool {
	b := fr.header.p.BucketSize
	base := int(bucket) * b
	for j := 0; j < b; j++ {
		if fr.keyAt(base+j) == fp && fr.matches(base+j, pred) {
			return true
		}
	}
	return false
}

func (fr *Frozen) queryPair(fp uint16, home uint32, pred Predicate) bool {
	l1 := home
	l2 := fr.header.altBucket(home, fp)
	if fr.bucketMatch(l1, fp, pred) {
		return true
	}
	return l2 != l1 && fr.bucketMatch(l2, fp, pred)
}

// QueryKey reports whether any row with the key may be present.
func (fr *Frozen) QueryKey(key uint64) bool {
	h := fr.header
	fp := h.fingerprint(key)
	l1 := h.homeBucket(key)
	l2 := h.altBucket(l1, fp)
	if fr.bucketHasKey(l1, fp) {
		return true
	}
	return l2 != l1 && fr.bucketHasKey(l2, fp)
}

func (fr *Frozen) bucketHasKey(bucket uint32, fp uint16) bool {
	b := fr.header.p.BucketSize
	base := int(bucket) * b
	for j := 0; j < b; j++ {
		if fr.keyAt(base+j) == fp {
			return true
		}
	}
	return false
}

// Rows returns the number of rows the source filter had accepted.
func (fr *Frozen) Rows() int { return fr.rows }

// OccupiedEntries returns the number of non-empty entries.
func (fr *Frozen) OccupiedEntries() int { return fr.occupied }

// Params returns the source filter's parameters.
func (fr *Frozen) Params() Params { return fr.header.p }

// SizeBits returns the actual packed storage: capacity·(|κ| + #α·|α|),
// matching the paper's size accounting exactly.
func (fr *Frozen) SizeBits() int64 {
	total := int64(fr.keys.Len())
	for _, c := range fr.cols {
		total += int64(c.Len())
	}
	return total
}

const frozenMagic = 0x315a4643 // "CFZ1"

// MarshalBinary encodes the frozen filter.
func (fr *Frozen) MarshalBinary() ([]byte, error) {
	h := fr.header
	var out []byte
	w64 := func(v uint64) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	w64(frozenMagic)
	w64(uint64(h.p.Variant))
	w64(uint64(h.p.KeyBits))
	w64(uint64(h.p.AttrBits))
	w64(uint64(h.p.NumAttrs))
	w64(uint64(h.p.BucketSize))
	w64(uint64(h.p.MaxDupes))
	w64(uint64(h.p.MaxChain))
	w64(uint64(h.m))
	w64(h.p.Seed)
	flagBits := uint64(0)
	if h.p.DisableSmallValueOpt {
		flagBits |= 1
	}
	if h.p.DisableCycleExtension {
		flagBits |= 2
	}
	w64(flagBits)
	w64(uint64(h.origAttrBits))
	w64(uint64(fr.occupied))
	w64(uint64(fr.rows))
	kb, err := fr.keys.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w64(uint64(len(kb)))
	out = append(out, kb...)
	for _, c := range fr.cols {
		cb, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w64(uint64(len(cb)))
		out = append(out, cb...)
	}
	return out, nil
}

// UnmarshalBinary decodes a frozen filter produced by MarshalBinary.
func (fr *Frozen) UnmarshalBinary(data []byte) error {
	r := &reader{data: data}
	if r.u64() != frozenMagic {
		if r.err != nil {
			return r.err
		}
		return errors.New("ccf: bad frozen magic")
	}
	var p Params
	p.Variant = Variant(r.u64())
	p.KeyBits = int(r.u64())
	p.AttrBits = int(r.u64())
	p.NumAttrs = int(r.u64())
	p.BucketSize = int(r.u64())
	p.MaxDupes = int(r.u64())
	p.MaxChain = int(r.u64())
	m := uint32(r.u64())
	p.Seed = r.u64()
	flagBits := r.u64()
	p.DisableSmallValueOpt = flagBits&1 != 0
	p.DisableCycleExtension = flagBits&2 != 0
	origAttrBits := int(r.u64())
	occupied := int(r.u64())
	rows := int(r.u64())
	if r.err != nil {
		return r.err
	}
	if m == 0 || m&(m-1) != 0 {
		return fmt.Errorf("ccf: corrupt frozen bucket count %d", m)
	}
	p.Buckets = m
	hdr, err := New(p)
	if err != nil {
		return fmt.Errorf("ccf: corrupt frozen params: %w", err)
	}
	header := hdr.headerClone()
	header.origAttrBits = origAttrBits

	keyLen := int(r.u64())
	kb := r.bytes(keyLen)
	if r.err != nil {
		return r.err
	}
	keys := new(bitset.Bits)
	if err := keys.UnmarshalBinary(kb); err != nil {
		return err
	}
	cols := make([]*bitset.Bits, header.p.NumAttrs)
	for j := range cols {
		colLen := int(r.u64())
		cb := r.bytes(colLen)
		if r.err != nil {
			return r.err
		}
		cols[j] = new(bitset.Bits)
		if err := cols[j].UnmarshalBinary(cb); err != nil {
			return err
		}
	}
	if r.off != len(data) {
		return fmt.Errorf("ccf: %d trailing bytes in frozen filter", len(data)-r.off)
	}
	capEntries := int(m) * header.p.BucketSize
	if keys.Len() != capEntries*header.p.KeyBits {
		return errors.New("ccf: frozen key column size mismatch")
	}
	for _, c := range cols {
		if c.Len() != capEntries*header.p.AttrBits {
			return errors.New("ccf: frozen attribute column size mismatch")
		}
	}
	fr.header = header
	fr.keys = keys
	fr.cols = cols
	fr.occupied = occupied
	fr.rows = rows
	return nil
}

// Thaw reconstructs a mutable Filter from the frozen snapshot.
func (fr *Frozen) Thaw() (*Filter, error) {
	p := fr.header.p
	p.Buckets = fr.header.m
	f, err := New(p)
	if err != nil {
		return nil, err
	}
	f.origAttrBits = fr.header.origAttrBits
	capEntries := f.Capacity()
	for idx := 0; idx < capEntries; idx++ {
		f.fps[idx] = fr.keyAt(idx)
		base := idx * p.NumAttrs
		for j := 0; j < p.NumAttrs; j++ {
			f.attrs[base+j] = fr.attrAt(j, idx)
		}
	}
	f.occupied = fr.occupied
	f.rows = fr.rows
	return f, nil
}
