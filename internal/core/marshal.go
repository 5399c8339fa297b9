package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ccf/internal/bloom"
)

// Binary format (little-endian):
//
//	magic "CCF1" | params block | counters | fps | flags | attrs |
//	per-entry blooms (Bloom variant) | groups (Mixed variant)
//
// Converted groups are shared objects; they are serialized once each and
// entries reference them by index, so sharing survives a round trip.
const marshalMagic = 0x31464343 // "CCF1"

// MarshalBinary encodes the filter so pre-built sketches can be stored and
// shipped to other nodes (§3: "Our work allows such filters to be
// precomputed and stored").
func (f *Filter) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	w := func(vs ...uint64) {
		for _, v := range vs {
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], v)
			buf.Write(tmp[:])
		}
	}
	w(marshalMagic)
	p := f.p
	boolBits := uint64(0)
	if p.DisableSmallValueOpt {
		boolBits |= 1
	}
	if p.DisableCycleExtension {
		boolBits |= 2
	}
	w(uint64(p.Variant), uint64(p.KeyBits), uint64(p.AttrBits), uint64(p.NumAttrs),
		uint64(p.BloomBits), uint64(p.BloomHashes), uint64(p.BucketSize),
		uint64(p.MaxDupes), uint64(p.MaxChain), uint64(p.MaxKicks),
		uint64(f.m), p.Seed, boolBits,
		uint64(f.occupied), uint64(f.rows), uint64(f.discarded),
		uint64(f.converted), uint64(f.origAttrBits), f.rngState)

	for _, fp := range f.fps {
		var tmp [2]byte
		binary.LittleEndian.PutUint16(tmp[:], fp)
		buf.Write(tmp[:])
	}
	buf.Write(f.flags)
	for _, a := range f.attrs {
		var tmp [2]byte
		binary.LittleEndian.PutUint16(tmp[:], a)
		buf.Write(tmp[:])
	}

	if f.p.Variant == VariantBloom {
		for _, ref := range f.sketch {
			bf := f.sketchAt(ref)
			if bf == nil {
				w(0)
				continue
			}
			bb, err := bf.MarshalBinary()
			if err != nil {
				return nil, err
			}
			w(uint64(len(bb)))
			buf.Write(bb)
		}
	}

	if f.p.Variant == VariantMixed {
		// Serialize each referenced group sketch once, in first-appearance
		// slot order, then the per-slot references — the same wire layout
		// the pointer-based storage produced, so group sharing survives a
		// round trip byte-identically.
		outIdx := make([]int32, len(f.arena))
		for i := range outIdx {
			outIdx[i] = -1
		}
		var distinct []int32
		for _, ref := range f.sketch {
			if ref == sketchNone {
				continue
			}
			if outIdx[ref] < 0 {
				outIdx[ref] = int32(len(distinct))
				distinct = append(distinct, ref)
			}
		}
		w(uint64(len(distinct)))
		for _, ref := range distinct {
			bb, err := f.arena[ref].MarshalBinary()
			if err != nil {
				return nil, err
			}
			w(uint64(len(bb)))
			buf.Write(bb)
		}
		for _, ref := range f.sketch {
			if ref == sketchNone {
				w(^uint64(0))
			} else {
				w(uint64(outIdx[ref]))
			}
		}
	}
	return buf.Bytes(), nil
}

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.err = errors.New("ccf: truncated buffer")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) u16s(n int) []uint16 {
	if r.err != nil {
		return nil
	}
	// n comes from wire data on some paths: reject negative (wrapped) and
	// impossibly large counts before they reach make() or the offset math.
	if n < 0 || n > len(r.data) || r.off+2*n > len(r.data) {
		r.err = errors.New("ccf: truncated buffer")
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(r.data[r.off+2*i:])
	}
	r.off += 2 * n
	return out
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = errors.New("ccf: truncated buffer")
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[r.off:])
	r.off += n
	return out
}

// UnmarshalBinary decodes a filter produced by MarshalBinary.
func (f *Filter) UnmarshalBinary(data []byte) error {
	r := &reader{data: data}
	if r.u64() != marshalMagic {
		if r.err != nil {
			return r.err
		}
		return errors.New("ccf: bad magic")
	}
	var p Params
	p.Variant = Variant(r.u64())
	p.KeyBits = int(r.u64())
	p.AttrBits = int(r.u64())
	p.NumAttrs = int(r.u64())
	p.BloomBits = int(r.u64())
	p.BloomHashes = int(r.u64())
	p.BucketSize = int(r.u64())
	p.MaxDupes = int(r.u64())
	p.MaxChain = int(r.u64())
	p.MaxKicks = int(r.u64())
	m := uint32(r.u64())
	p.Seed = r.u64()
	boolBits := r.u64()
	p.DisableSmallValueOpt = boolBits&1 != 0
	p.DisableCycleExtension = boolBits&2 != 0
	occupied := int(r.u64())
	rows := int(r.u64())
	discarded := int(r.u64())
	converted := int(r.u64())
	origAttrBits := int(r.u64())
	rngState := r.u64()
	if r.err != nil {
		return r.err
	}
	if m == 0 || m&(m-1) != 0 {
		return fmt.Errorf("ccf: corrupt bucket count %d", m)
	}
	p.Buckets = m
	g, err := New(p)
	if err != nil {
		return fmt.Errorf("ccf: corrupt params: %w", err)
	}
	n := g.Capacity()
	g.fps = r.u16s(n)
	g.flags = r.bytes(n)
	if g.attrs != nil {
		g.attrs = r.u16s(n * p.NumAttrs)
	}
	if p.Variant == VariantBloom {
		for i := 0; i < n; i++ {
			blen := int(r.u64())
			if blen == 0 {
				continue
			}
			bb := r.bytes(blen)
			if r.err != nil {
				return r.err
			}
			bf := new(bloom.Filter)
			if err := bf.UnmarshalBinary(bb); err != nil {
				return fmt.Errorf("ccf: entry bloom: %w", err)
			}
			g.sketch[i] = g.addSketch(bf)
		}
	}
	if p.Variant == VariantMixed {
		nGroups := int(r.u64())
		if r.err != nil {
			return r.err
		}
		if nGroups < 0 || nGroups > n {
			return fmt.Errorf("ccf: corrupt group count %d", nGroups)
		}
		// Wire group order becomes the arena order, so per-slot references
		// decode directly as arena references.
		g.arena = make([]*bloom.Filter, nGroups)
		for i := range g.arena {
			blen := int(r.u64())
			bb := r.bytes(blen)
			if r.err != nil {
				return r.err
			}
			bf := new(bloom.Filter)
			if err := bf.UnmarshalBinary(bb); err != nil {
				return fmt.Errorf("ccf: group bloom: %w", err)
			}
			g.arena[i] = bf
		}
		for i := 0; i < n; i++ {
			idx := r.u64()
			if r.err != nil {
				return r.err
			}
			if idx == ^uint64(0) {
				continue
			}
			if idx >= uint64(nGroups) {
				return fmt.Errorf("ccf: group reference %d out of range", idx)
			}
			g.sketch[i] = int32(idx)
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("ccf: %d trailing bytes", len(data)-r.off)
	}
	// Only a Mixed slot that holds a fingerprint and a group reference is
	// ever converted, and only key views, which are never marshaled, hold
	// tombstones; any other flag would send a probe into sketch storage
	// the slot does not have.
	for i, fl := range g.flags {
		if fl != 0 && (fl != flagConverted || p.Variant != VariantMixed ||
			g.fps[i] == 0 || g.sketch[i] == sketchNone) {
			return fmt.Errorf("ccf: corrupt flags %#x at slot %d", fl, i)
		}
	}
	g.occupied = occupied
	g.rows = rows
	g.discarded = discarded
	g.converted = converted
	g.origAttrBits = origAttrBits
	g.rngState = rngState
	*f = *g
	return nil
}
