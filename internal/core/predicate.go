package core

import (
	"fmt"
	"slices"
)

// Cond is a single-attribute condition: the attribute at index Attr must
// equal one of Values. A single value expresses an equality predicate; a
// value list expresses an in-list, the encoding the paper uses for binned
// range predicates (§9.1).
type Cond struct {
	Attr   int
	Values []uint64
}

// Eq returns an equality condition attr = v.
func Eq(attr int, v uint64) Cond { return Cond{Attr: attr, Values: []uint64{v}} }

// In returns an in-list condition attr ∈ vs.
func In(attr int, vs ...uint64) Cond { return Cond{Attr: attr, Values: vs} }

// Predicate is a conjunction of per-attribute conditions. A nil or empty
// Predicate matches every row (a key-only query).
type Predicate []Cond

// And returns a predicate that is the conjunction of conds.
func And(conds ...Cond) Predicate { return Predicate(conds) }

// Validate checks that every condition references a valid attribute index
// and has at least one value.
func (p Predicate) Validate(numAttrs int) error {
	for _, c := range p {
		if c.Attr < 0 || c.Attr >= numAttrs {
			return fmt.Errorf("ccf: predicate attribute %d outside [0,%d)", c.Attr, numAttrs)
		}
		if len(c.Values) == 0 {
			return fmt.Errorf("ccf: predicate on attribute %d has no values", c.Attr)
		}
	}
	return nil
}

// matchVector reports whether the fingerprint vector at attrs satisfies p
// under the filter's attribute fingerprinting.
func (f *Filter) matchVector(entryIdx int, p Predicate) bool {
	base := entryIdx * f.nattr
	for _, c := range p {
		got := f.attrs[base+c.Attr]
		ok := false
		for _, v := range c.Values {
			if got == f.attrFingerprint(c.Attr, v) {
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

// compiledPred is a predicate compiled against one filter for one batch
// probe: per constrained attribute, a bitmap over the 2^AttrBits
// attribute fingerprints its condition's values map to under
// attrFingerprint (so the small-value rule, DisableSmallValueOpt and a
// compressed filter's fold all hold). A vector entry then matches with
// one bit test per attribute instead of re-fingerprinting every value for
// every slot that holds the key. Conditions that repeat an attribute
// narrow its bitmap to their intersection. It lives in the pooled
// probeBatch, never in the filter, so concurrent readers each compile
// their own.
type compiledPred struct {
	pred  Predicate // Bloom entries and converted groups match it raw
	raw   bool      // no bitmaps: every entry matches pred itself
	attrs []int     // the attributes pred constrains, each once
	nw    int       // bitmap words per attribute
	// bits holds the bitmap of attrs[i] at bits[i*nw : (i+1)*nw], then
	// nw words of scratch for intersecting a repeated attribute.
	bits []uint64
}

// maxCompiledWords caps the compile scratch: a predicate over more
// distinct attributes than fit (7 at AttrBits 16, 2047 at AttrBits 8)
// matches raw, so no request can make a pooled probeBatch hold more.
const maxCompiledWords = 1 << 13

// compile prepares cp to answer pred on f. The scratch grows with the
// attributes pred constrains, not with the filter's NumAttrs, and a
// compile clears only the rows the previous one used.
func (cp *compiledPred) compile(f *Filter, pred Predicate) {
	clear(cp.bits[:len(cp.attrs)*cp.nw])
	cp.attrs, cp.pred, cp.raw = cp.attrs[:0], pred, f.attrs == nil
	if len(pred) == 0 || cp.raw {
		return // key-only, or VariantBloom: no bitmap to test
	}
	for _, c := range pred {
		if !slices.Contains(cp.attrs, c.Attr) {
			cp.attrs = append(cp.attrs, c.Attr)
		}
	}
	nw, k := max(1, 1<<f.p.AttrBits/64), len(cp.attrs)
	if (k+1)*nw > maxCompiledWords {
		cp.attrs, cp.raw = cp.attrs[:0], true
		return
	}
	cp.nw = nw
	if len(cp.bits) < (k+1)*nw {
		cp.bits = make([]uint64, (k+1)*nw)
	}
	tmp := cp.bits[k*nw : (k+1)*nw]
	seen := 0 // attrs is in first-use order: attrs[seen] is the next new one
	for _, c := range pred {
		i := slices.Index(cp.attrs, c.Attr)
		row := cp.bits[i*nw : (i+1)*nw]
		if i == seen {
			seen++
			f.setFingerprints(row, c)
			continue
		}
		// A repeated attribute: the conjunction keeps the fingerprints
		// both conditions admit.
		f.setFingerprints(tmp, c)
		for w := range row {
			row[w] &= tmp[w]
		}
		clear(tmp)
	}
}

// setFingerprints sets the bits of c's value fingerprints in row.
func (f *Filter) setFingerprints(row []uint64, c Cond) {
	for _, v := range c.Values {
		a := f.attrFingerprint(c.Attr, v)
		row[a/64] |= 1 << (a % 64)
	}
}

// matchVector is Filter.matchVector against the compiled bitmaps; vec is
// the entry's attribute vector. A stored fingerprint outside the bitmap
// (only a corrupt snapshot holds one) equals no value's fingerprint.
func (cp *compiledPred) matchVector(vec []uint16) bool {
	for i, a := range cp.attrs {
		x := int(vec[a])
		if x/64 >= cp.nw || cp.bits[i*cp.nw+x/64]&(1<<(x%64)) == 0 {
			return false
		}
	}
	return true
}

// matchBloomEntry reports whether the per-entry Bloom sketch satisfies p.
// The Bloom variant inserts raw (attribute, value) pairs (§5.2).
func (f *Filter) matchBloomEntry(entryIdx int, p Predicate) bool {
	bf := f.sketchAt(f.sketch[entryIdx])
	if bf == nil {
		return len(p) == 0
	}
	for _, c := range p {
		ok := false
		for _, v := range c.Values {
			if bf.Contains(f.bloomElemRaw(c.Attr, v)) {
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

// matchGroup reports whether a converted group's Bloom filter satisfies p.
// The group sketch is resolved by arena reference (§6.1's shared filter);
// conversion inserts (attribute, attribute-fingerprint) pairs, adding the
// second collision layer the paper describes.
func (f *Filter) matchGroup(ref int32, p Predicate) bool {
	bf := f.sketchAt(ref)
	for _, c := range p {
		ok := false
		for _, v := range c.Values {
			if bf.Contains(f.bloomElemFp(c.Attr, f.attrFingerprint(c.Attr, v))) {
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
