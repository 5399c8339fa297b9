package core

import (
	"encoding/binary"
	"testing"
)

// FuzzInsertQuery drives arbitrary operation tapes against a chained CCF
// and an exact shadow model, asserting the no-false-negative guarantee and
// internal invariants. Run with `go test -fuzz=FuzzInsertQuery` for
// continuous fuzzing; the seed corpus runs in every normal test pass.
func FuzzInsertQuery(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 1, 2, 3}, uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(2))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, tape []byte, variantSel uint8) {
		variant := []Variant{VariantPlain, VariantChained, VariantBloom, VariantMixed}[variantSel%4]
		filt, err := New(Params{Variant: variant, NumAttrs: 1, Capacity: 2048, BloomBits: 24, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		type row struct{ k, a uint64 }
		inserted := map[row]bool{}
		for i := 0; i+3 <= len(tape); i += 3 {
			k := uint64(tape[i]) % 64
			a := uint64(tape[i+1]) % 32
			op := tape[i+2] % 3
			switch op {
			case 0, 1:
				err := filt.Insert(k, []uint64{a})
				if err == ErrFull && variant == VariantPlain {
					continue
				}
				if err != nil && err != ErrChainLimit {
					t.Fatalf("insert(%d,%d): %v", k, a, err)
				}
				inserted[row{k, a}] = true
			case 2:
				// Query an arbitrary pair; verify no false negatives for
				// everything inserted so far.
				filt.Query(k, And(Eq(0, a)))
			}
		}
		for r := range inserted {
			if !filt.Query(r.k, And(Eq(0, r.a))) {
				t.Fatalf("%s: false negative for %+v", variant, r)
			}
		}
		if filt.OccupiedEntries() > filt.Capacity() {
			t.Fatal("occupancy exceeds capacity")
		}
		if filt.LoadFactor() < 0 || filt.LoadFactor() > 1 {
			t.Fatalf("load factor %v out of range", filt.LoadFactor())
		}
	})
}

// FuzzDifferential drives the packed bucket engine against an exact
// shadow model across all four variants, including Delete on the Plain
// variant, asserting the no-false-negative guarantee after every
// operation tape. Deletes are alias-aware: deleting a row also releases
// the model rows whose sketched form (fingerprint, bucket pair, attribute
// vector) is identical, because the filter legitimately deduplicated them
// into the one entry being removed — the standard deletion caveat of
// every cuckoo filter.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 0, 3, 4, 1, 5, 6, 2}, uint8(0))
	f.Add([]byte{7, 7, 0, 7, 7, 3, 7, 7, 1}, uint8(1))
	f.Add([]byte{9, 1, 0, 9, 1, 3, 9, 1, 3, 9, 1, 2}, uint8(2))
	f.Add([]byte{0xff, 0x10, 0, 0xff, 0x10, 3}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, tape []byte, variantSel uint8) {
		variant := []Variant{VariantPlain, VariantChained, VariantBloom, VariantMixed}[variantSel%4]
		filt, err := New(Params{Variant: variant, NumAttrs: 1, Capacity: 2048, BloomBits: 24, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		type row struct{ k, a uint64 }
		model := map[row]bool{}
		// sameSlot reports whether two rows sketch to the same entry: same
		// key fingerprint, same bucket pair, same attribute vector.
		sameSlot := func(x, y row) bool {
			fx, fy := filt.fingerprint(x.k), filt.fingerprint(y.k)
			if fx != fy {
				return false
			}
			hx, hy := filt.homeBucket(x.k), filt.homeBucket(y.k)
			if hx != hy && hx != filt.altBucket(hy, fy) {
				return false
			}
			return filt.attrFingerprint(0, x.a) == filt.attrFingerprint(0, y.a)
		}
		check := func(op int) {
			for r := range model {
				if !filt.Query(r.k, And(Eq(0, r.a))) {
					t.Fatalf("%s op %d: false negative for %+v", variant, op, r)
				}
			}
		}
		for i := 0; i+3 <= len(tape); i += 3 {
			k := uint64(tape[i]) % 48
			a := uint64(tape[i+1]) % 24
			r := row{k, a}
			switch tape[i+2] % 4 {
			case 0, 1: // insert
				err := filt.Insert(k, []uint64{a})
				if err == ErrFull && variant == VariantPlain {
					continue
				}
				if err != nil && err != ErrChainLimit {
					t.Fatalf("%s: insert(%d,%d): %v", variant, k, a, err)
				}
				model[r] = true
			case 2: // query (also an absent-key probe when not inserted)
				want := model[r]
				if got := filt.Query(k, And(Eq(0, a))); want && !got {
					t.Fatalf("%s: false negative for %+v", variant, r)
				}
			case 3: // delete
				err := filt.Delete(k, []uint64{a})
				if variant != VariantPlain {
					if err != ErrUnsupported {
						t.Fatalf("%s: Delete returned %v, want ErrUnsupported", variant, err)
					}
					continue
				}
				if err == ErrNotFound {
					// Either the row was never stored, or cross-key
					// aliasing deduplicated it away at insert time; the
					// model row (if any) was already released by the
					// sameSlot sweep of an earlier delete.
					continue
				}
				if err != nil {
					t.Fatalf("delete(%d,%d): %v", k, a, err)
				}
				for other := range model {
					if sameSlot(r, other) {
						delete(model, other)
					}
				}
			}
		}
		check(len(tape))
		if filt.OccupiedEntries() > filt.Capacity() || filt.OccupiedEntries() < 0 {
			t.Fatalf("occupancy %d outside [0,%d]", filt.OccupiedEntries(), filt.Capacity())
		}
	})
}

// FuzzLadderDifferential extends FuzzDifferential to the elastic ladder:
// arbitrary operation tapes drive a deliberately undersized ladder
// through reactive growth, explicit Grow calls, Plain deletes and
// periodic folds (rebuilding a right-sized ladder from the surviving
// rows, exactly what the store's WAL-replay fold produces) while an
// exact model asserts the no-false-negative guarantee after every
// mutation epoch. Deletes release aliased model rows like
// FuzzDifferential, except aliasing is checked per level — a copy
// deduplicated in one level may be the entry deleted, whichever level
// holds it.
func FuzzLadderDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 0, 3, 4, 1, 5, 6, 2}, uint8(0))
	f.Add([]byte{7, 7, 0, 7, 8, 0, 7, 9, 4, 7, 7, 2}, uint8(1))
	f.Add([]byte{9, 1, 0, 9, 1, 5, 9, 2, 0, 9, 1, 4, 9, 1, 2}, uint8(2))
	f.Add([]byte{0xff, 0x10, 0, 0xff, 0x11, 0, 0xff, 0x12, 3, 0xff, 0x10, 4}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, tape []byte, variantSel uint8) {
		variant := []Variant{VariantPlain, VariantChained, VariantBloom, VariantMixed}[variantSel%4]
		params := Params{Variant: variant, NumAttrs: 1, Capacity: 96, BloomBits: 24, Seed: 21}
		lad, err := NewLadder(params, LadderOptions{MaxLevels: 5})
		if err != nil {
			t.Fatal(err)
		}
		type row struct{ k, a uint64 }
		model := map[row]bool{}
		// sameSlotAnyLevel reports whether two rows could share one entry
		// in any level: same key fingerprint, same bucket pair under that
		// level's mask, same attribute fingerprint.
		sameSlotAnyLevel := func(x, y row) bool {
			for _, filt := range lad.lv {
				fx, fy := filt.fingerprint(x.k), filt.fingerprint(y.k)
				if fx != fy {
					return false // fingerprints are level-independent
				}
				hx, hy := filt.homeBucket(x.k), filt.homeBucket(y.k)
				if (hx == hy || hx == filt.altBucket(hy, fy)) &&
					filt.attrFingerprint(0, x.a) == filt.attrFingerprint(0, y.a) {
					return true
				}
			}
			return false
		}
		check := func(op int) {
			for r := range model {
				if !lad.Query(r.k, And(Eq(0, r.a))) {
					t.Fatalf("%s op %d: false negative for %+v (levels %d)", variant, op, r, lad.Levels())
				}
			}
		}
		fold := func() {
			// The store's fold: a fresh right-sized ladder rebuilt from the
			// surviving rows. The exact model stands in for the WAL here.
			fresh, err := NewLadder(Params{
				Variant: variant, NumAttrs: 1, BloomBits: 24, Seed: 21,
				Capacity: max(len(model), 1),
			}, LadderOptions{MaxLevels: 5})
			if err != nil {
				t.Fatal(err)
			}
			for r := range model {
				if err := fresh.Insert(r.k, []uint64{r.a}); err != nil && err != ErrChainLimit {
					t.Fatalf("%s: fold reinsert %+v: %v", variant, r, err)
				}
			}
			lad = fresh
		}
		for i := 0; i+3 <= len(tape); i += 3 {
			k := uint64(tape[i]) % 96
			a := uint64(tape[i+1]) % 24
			r := row{k, a}
			switch tape[i+2] % 6 {
			case 0, 1: // insert (reactive growth under the hood)
				err := lad.Insert(k, []uint64{a})
				if err == ErrFull {
					continue // growth budget exhausted; row not stored
				}
				if err != nil && err != ErrChainLimit {
					t.Fatalf("%s: insert(%d,%d): %v", variant, k, a, err)
				}
				model[r] = true
			case 2: // query, including absent-key probes
				if got := lad.Query(k, And(Eq(0, a))); model[r] && !got {
					t.Fatalf("%s: false negative for %+v", variant, r)
				}
			case 3: // delete (Plain only)
				err := lad.Delete(k, []uint64{a})
				if variant != VariantPlain {
					if err != ErrUnsupported {
						t.Fatalf("%s: Delete returned %v, want ErrUnsupported", variant, err)
					}
					continue
				}
				if err == ErrNotFound {
					continue
				}
				if err != nil {
					t.Fatalf("delete(%d,%d): %v", k, a, err)
				}
				for other := range model {
					if sameSlotAnyLevel(r, other) {
						delete(model, other)
					}
				}
			case 4: // fold
				fold()
				check(i)
			case 5: // proactive grow
				if err := lad.Grow(); err != nil && err != ErrMaxLevels {
					t.Fatalf("%s: Grow: %v", variant, err)
				}
			}
		}
		check(len(tape))
		if lad.OccupiedEntries() > lad.Capacity() || lad.OccupiedEntries() < 0 {
			t.Fatalf("occupancy %d outside [0,%d]", lad.OccupiedEntries(), lad.Capacity())
		}
		// Marshal round trip preserves the guarantee mid-state.
		blob, err := lad.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Ladder
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for r := range model {
			if !back.Query(r.k, And(Eq(0, r.a))) {
				t.Fatalf("%s: false negative after round trip for %+v", variant, r)
			}
		}
	})
}

// FuzzUnmarshal hardens the decoder: arbitrary bytes must never panic, and
// any buffer that decodes successfully must re-encode to a filter that can
// serve queries.
func FuzzUnmarshal(f *testing.F) {
	// Seed with valid encodings of each variant.
	for _, v := range []Variant{VariantPlain, VariantChained, VariantBloom, VariantMixed} {
		filt, err := New(Params{Variant: v, NumAttrs: 1, Capacity: 128, Seed: 3})
		if err != nil {
			f.Fatal(err)
		}
		for k := uint64(0); k < 32; k++ {
			_ = filt.Insert(k, []uint64{k % 4})
		}
		blob, err := filt.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		// Also seed a few corruptions.
		for _, pos := range []int{8, 40, len(blob) / 2} {
			if pos < len(blob) {
				c := append([]byte(nil), blob...)
				c[pos] ^= 0x42
				f.Add(c)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var filt Filter
		if err := filt.UnmarshalBinary(data); err != nil {
			return // rejected: fine
		}
		// Accepted: the filter must be usable without panicking.
		filt.Query(1, And(Eq(0, 1)))
		filt.QueryKey(2)
		_ = filt.LoadFactor()
		if _, err := filt.MarshalBinary(); err != nil {
			t.Fatalf("re-encode of accepted buffer failed: %v", err)
		}
	})
}

// FuzzFrozenUnmarshal hardens the frozen-filter decoder the same way.
func FuzzFrozenUnmarshal(f *testing.F) {
	filt, err := New(Params{Variant: VariantChained, NumAttrs: 2, Capacity: 128, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	for k := uint64(0); k < 64; k++ {
		_ = filt.Insert(k, []uint64{k % 4, k % 9})
	}
	fr, err := filt.Freeze()
	if err != nil {
		f.Fatal(err)
	}
	blob, err := fr.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(blob)))
	f.Add(append(lenBuf[:], blob...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fz Frozen
		if err := fz.UnmarshalBinary(data); err != nil {
			return
		}
		fz.Query(1, And(Eq(0, 1)))
		fz.QueryKey(2)
		_ = fz.SizeBits()
	})
}
