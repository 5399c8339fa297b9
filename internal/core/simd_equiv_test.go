package core

import "testing"

// FuzzSIMDEquivalence differential-fuzzes the vectorized batch probe
// pipeline against the scalar point path. The batch entry points run the
// internal/simd kernels (AVX2 where detected), compile the predicate
// into per-attribute bitmaps and settle each key's first pair from slot
// hit masks; Query, QueryKey and queryChained do none of that — so any
// kernel, mask or compiled-predicate step that diverges from the scalar
// reference semantics shows up as a batch/point mismatch. The tape drives
// table shape too: BucketSize 4 through 8 run the MaskSlots kernel (6
// with d = 3 is the chained default ccfd serves), 2 and 3 its generic
// form, 12 the scalar per-key fallback above simd.MaxSlots; AttrBits 16
// needs the widest compiled bitmaps and 3 makes most values hashed.
// Direct tombstoning exercises the resolver's flagged-slot handling
// against entryMatches. A second probe sequence repeats keys in runs,
// which the tile pipeline probes once each: the tape picks each run's
// key and length, and one run crosses the first tile boundary.
func FuzzSIMDEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(0), uint8(1))
	f.Add([]byte{0xff, 0x80, 0x01, 0x10, 0x20, 0x30}, uint8(1), uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(2), uint8(4))
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}, uint8(3), uint8(7))
	f.Add([]byte{}, uint8(0), uint8(2))
	f.Add([]byte{9, 0x85, 9, 0x93, 9, 0xa5, 9, 0x05, 9, 0x16, 3, 0x85}, uint8(5), uint8(3))
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}, uint8(3), uint8(9))
	f.Add([]byte{0x85, 1, 0x85, 0x81, 0x85, 0x91, 0x85, 0xc1, 2, 0x81}, uint8(1), uint8(27))
	f.Add([]byte{0x85, 1, 0x85, 0x81, 0x85, 0x91, 0x85, 0xc1, 2, 0x81}, uint8(1), uint8(6))
	// Chained b = 6, d = 3: key 9's seven distinct rows fill two pairs
	// and reach a third; its runs alternate with absent key 1009's.
	f.Add([]byte{9, 1, 9, 2, 0x89, 38, 9, 3, 9, 4, 0x89, 5, 9, 5, 9, 39}, uint8(1), uint8(3))
	// b = 12 probes each run through the scalar fallback above
	// simd.MaxSlots, key-only probes included: chained with two
	// attributes, and mixed.
	f.Add([]byte{9, 1, 9, 2, 9, 3, 0x89, 4, 3, 5, 3, 0x86}, uint8(5), uint8(5))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), uint8(13))
	f.Fuzz(func(t *testing.T, tape []byte, variantSel, shapeSel uint8) {
		variant := []Variant{VariantPlain, VariantChained, VariantBloom, VariantMixed}[variantSel%4]
		bsz := []int{4, 2, 8, 6, 3, 12, 5, 7}[shapeSel%8]
		keyBits := []int{16, 8, 12}[int(shapeSel/8)%3]
		attrBits := []int{8, 16, 3}[int(shapeSel/24)%3]
		nattr := 1 + int(variantSel/4)%2
		params := Params{
			Variant: variant, NumAttrs: nattr, Capacity: 1024, BloomBits: 24,
			BucketSize: bsz, KeyBits: keyBits, AttrBits: attrBits, Seed: 11,
		}
		if variant == VariantChained {
			params.MaxDupes = 1
			if bsz == 6 {
				params.MaxDupes = 3
			}
		}
		filt, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		// attr maps a tape byte to an attribute value: the low nibble, moved
		// above every AttrBits' small-value range when the high bit is set,
		// so some stored fingerprints are exact and some hashed.
		attr := func(b byte) uint64 {
			v := uint64(b % 16)
			if b&0x80 != 0 {
				v |= 1 << 20
			}
			return v
		}
		row := make([]uint64, nattr)
		for i := 0; i+1 < len(tape); i += 2 {
			k := uint64(tape[i]) % 128
			row[0] = attr(tape[i+1])
			if nattr == 2 {
				row[1] = uint64(tape[i+1]>>4) % 4
			}
			if err := filt.Insert(k, row); err != nil &&
				err != ErrFull && err != ErrChainLimit {
				t.Fatal(err)
			}
		}
		// Probe inserted and absent keys, enough of them that the batch
		// crosses a tile boundary.
		keys := make([]uint64, 0, 320)
		for k := uint64(0); k < 160; k++ {
			keys = append(keys, k, k*0x9e3779b97f4a7c15)
		}
		// Then runs of equal keys: 250 distinct keys, a run of the first
		// inserted key over positions 250–261, and one run per tape pair
		// of its key (or, with the high bit set, of a key never inserted)
		// with a length of 1 to 40. A key inserted with several rows runs
		// past its first pair.
		first := uint64(9)
		if len(tape) > 0 {
			first = uint64(tape[0]) % 128
		}
		runs := append(make([]uint64, 0, 262+20*len(tape)), keys[2:252]...)
		for i := 0; i < 12; i++ {
			runs = append(runs, first)
		}
		for i := 0; i+1 < len(tape); i += 2 {
			k := uint64(tape[i]) % 128
			if tape[i]&0x80 != 0 {
				k += 1000
			}
			for j := 0; j <= int(tape[i+1])%40; j++ {
				runs = append(runs, k)
			}
		}
		// Key membership first, while the table holds what a filter
		// holds: the key-only batch probe against QueryKey.
		for _, probe := range [][]uint64{keys, runs} {
			checkKeyOnlyAgainstQueryKey(t, filt, probe)
		}
		// Tombstone some occupied slots directly (what a predicate view's
		// erase leaves behind): still a fingerprint hit in the slot mask,
		// never a predicate match.
		for i := 0; i+1 < len(tape); i += 2 {
			if tape[i]%5 != 0 {
				continue
			}
			idx := int(tape[i+1]) % len(filt.fps)
			if filt.fps[idx] != 0 {
				filt.flags[idx] |= flagTombstone
			}
		}
		var v0, v1 uint64
		if len(tape) > 0 {
			v0, v1 = attr(tape[0]), attr(tape[len(tape)-1])
		}
		preds := []Predicate{
			nil,
			And(Eq(0, v0)),
			// An in-list mixing exact and hashed values.
			And(In(0, v0, v0^1<<20, v1, 1<<40)),
			// A repeated attribute: the conjunction of both conditions.
			And(In(0, v0, v1), Eq(0, v1)),
		}
		if nattr == 2 {
			preds = append(preds, And(Eq(0, v1), In(1, 0, 2, v0)))
		}
		for _, probe := range [][]uint64{keys, runs} {
			checkBatchAgainstPoint(t, filt, probe, preds)
		}
	})
}

// checkBatchAgainstPoint compares both batch forms against the point
// probe over probe: QueryBatchInto and a scatter QueryBatchIdx against
// Query for each predicate.
func checkBatchAgainstPoint(t *testing.T, filt *Filter, probe []uint64, preds []Predicate) {
	t.Helper()
	p := filt.p
	for _, pred := range preds {
		got := filt.QueryBatchInto(nil, probe, pred)
		for i, k := range probe {
			if want := filt.Query(k, pred); got[i] != want {
				t.Fatalf("%s b=%d kb=%d ab=%d pred=%v: QueryBatch(key[%d] %#x) = %v, point Query = %v",
					p.Variant, p.BucketSize, p.KeyBits, p.AttrBits, pred, i, k, got[i], want)
			}
		}
		// Scatter form, reversed order, holes left untouched.
		idxs := make([]int32, 0, len(probe))
		for i := len(probe) - 1; i >= 0; i-- {
			if i%3 != 0 {
				idxs = append(idxs, int32(i))
			}
		}
		out := make([]bool, len(probe))
		filt.QueryBatchIdx(out, probe, idxs, pred)
		for _, i := range idxs {
			if want := filt.Query(probe[i], pred); out[i] != want {
				t.Fatalf("%s b=%d ab=%d pred=%v: QueryBatchIdx(key[%d] %#x) = %v, point Query = %v",
					p.Variant, p.BucketSize, p.AttrBits, pred, i, probe[i], out[i], want)
			}
		}
	}
}

// checkKeyOnlyAgainstQueryKey compares the key-only batch probe, a nil
// predicate through QueryBatchInto, against QueryKey over probe. It
// holds on a table without tombstones, since QueryKey counts a
// tombstoned copy of the key and a predicate probe does not.
func checkKeyOnlyAgainstQueryKey(t *testing.T, filt *Filter, probe []uint64) {
	t.Helper()
	p := filt.p
	got := filt.QueryBatchInto(nil, probe, nil)
	for i, k := range probe {
		if want := filt.QueryKey(k); got[i] != want {
			t.Fatalf("%s b=%d kb=%d: key-only QueryBatch(key[%d] %#x) = %v, QueryKey = %v",
				p.Variant, p.BucketSize, p.KeyBits, i, k, got[i], want)
		}
	}
}
