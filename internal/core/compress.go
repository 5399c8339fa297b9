package core

import "fmt"

// CompressAttributes implements the two-stage construction of §9
// ("Attribute compression"): build a CCF with wide attribute fingerprints,
// then map them down to newBits-wide fingerprints. The mapping is a
// deterministic XOR-fold, so a query's attribute value is first
// fingerprinted at the original width and then folded identically.
//
// Compression is defined for the fingerprint-vector variants (Plain,
// Chained); Mixed filters may contain converted groups whose Bloom bits
// cannot be re-derived, and the Bloom variant has no fingerprint vectors.
func (f *Filter) CompressAttributes(newBits int) (*Filter, error) {
	if f.p.Variant != VariantPlain && f.p.Variant != VariantChained {
		return nil, ErrUnsupported
	}
	if newBits < 1 || newBits >= f.p.AttrBits {
		return nil, fmt.Errorf("ccf: compressed width %d must be in [1,%d)", newBits, f.p.AttrBits)
	}
	np := f.p
	np.AttrBits = newBits
	np.Buckets = f.m
	g, err := New(np)
	if err != nil {
		return nil, err
	}
	// Identical geometry and salts: entries keep their slots; only the
	// attribute fingerprints shrink. Queries against g fold their attribute
	// fingerprints the same way via g.origAttrBits.
	g.origAttrBits = f.p.AttrBits
	copy(g.fps, f.fps)
	copy(g.flags, f.flags)
	g.occupied = f.occupied
	g.rows = f.rows
	g.discarded = f.discarded
	for idx := range f.fps {
		if f.fps[idx] == 0 {
			continue
		}
		srcBase := idx * f.p.NumAttrs
		dstBase := idx * np.NumAttrs
		for j := 0; j < f.p.NumAttrs; j++ {
			g.attrs[dstBase+j] = foldFingerprint(f.attrs[srcBase+j], f.p.AttrBits, newBits)
		}
	}
	return g, nil
}

// foldFingerprint XOR-folds a fromBits-wide fingerprint down to toBits.
func foldFingerprint(fp uint16, fromBits, toBits int) uint16 {
	mask := uint16(1<<toBits - 1)
	out := uint16(0)
	for shift := 0; shift < fromBits; shift += toBits {
		out ^= fp >> uint(shift)
	}
	return out & mask
}
