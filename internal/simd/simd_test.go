package simd

import (
	"math/rand"
	"testing"

	"ccf/internal/hashing"
)

// randTable builds a table of m buckets of bsz slots whose fingerprints
// are fp, one off it either way (the borrow-propagation bait of SWAR
// compares), random, or zero (empty), so hits, near misses and empty
// slots all occur.
func randTable(r *rand.Rand, m, bsz int, fp uint16) []uint16 {
	fps := make([]uint16, m*bsz)
	for i := range fps {
		switch r.Intn(5) {
		case 0:
			fps[i] = fp
		case 1:
			fps[i] = fp - 1
		case 2:
			fps[i] = fp + 1
		case 3:
			fps[i] = uint16(r.Uint32())
		}
	}
	return fps
}

// naiveMask is the slot-by-slot definition the kernels must meet.
func naiveMask(fps []uint16, bsz int, bucket uint32, fp uint16) uint8 {
	var m uint8
	for j := 0; j < bsz; j++ {
		if fps[int(bucket)*bsz+j] == fp {
			m |= 1 << j
		}
	}
	return m
}

func TestMaskSlotsMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const m = 1 << 8
	ns := []int{255, 256}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	for bsz := 1; bsz <= MaxSlots; bsz++ {
		for _, fp := range []uint16{1, 0xFFFF, 0x1234} {
			fps := randTable(r, m, bsz, fp)
			flags := make([]uint8, m*bsz)
			for _, nattr := range []int{0, 2} {
				attrs := make([]uint16, m*bsz*nattr)
				for _, n := range ns {
					l1, l2 := make([]uint32, n), make([]uint32, n)
					fpw := make([]uint64, n)
					for i := 0; i < n; i++ {
						l1[i], l2[i] = uint32(r.Intn(m)), uint32(r.Intn(m))
						fpw[i] = uint64(fp) * laneLo
					}
					// The first and last bucket of the table.
					l1[0], l2[n-1] = 0, m-1
					if n > 1 {
						l2[0], l1[n-1] = m-1, 0
					}
					want1, want2 := make([]uint8, n), make([]uint8, n)
					got1, got2 := make([]uint8, n), make([]uint8, n)
					maskSlotsGeneric(fps, flags, attrs, bsz, nattr, l1, l2, fpw, want1, want2, n)
					bestKernels.maskSlots(fps, flags, attrs, bsz, nattr, l1, l2, fpw, got1, got2, n)
					for i := 0; i < n; i++ {
						n1, n2 := naiveMask(fps, bsz, l1[i], fp), naiveMask(fps, bsz, l2[i], fp)
						if want1[i] != n1 || want2[i] != n2 {
							t.Fatalf("b=%d fp=%#x key %d: generic masks (%#x,%#x), slot scan (%#x,%#x)",
								bsz, fp, i, want1[i], want2[i], n1, n2)
						}
						if got1[i] != want1[i] || got2[i] != want2[i] {
							t.Fatalf("%s b=%d fp=%#x nattr=%d n=%d key %d (buckets %d,%d): got (%#x,%#x) want (%#x,%#x)",
								Best(), bsz, fp, nattr, n, i, l1[i], l2[i], got1[i], got2[i], want1[i], want2[i])
						}
					}
				}
			}
		}
	}
}

func TestHashFillMatchesGeneric(t *testing.T) {
	if Best() == EngineScalar {
		t.Skip("no hardware engine in this build")
	}
	r := rand.New(rand.NewSource(2))
	seedFp := hashing.Salt(0x2002)
	seedIdx := hashing.Salt(0x1001)
	for _, fpBits := range []uint{4, 8, 12, 16} {
		fpMask := uint16(1)<<fpBits - 1
		altOff := make([]uint32, int(fpMask)+1)
		for i := range altOff {
			altOff[i] = r.Uint32() & 0xfff
		}
		for _, n := range []int{0, 1, 3, 4, 5, 8, 13, 256} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = r.Uint64()
			}
			// A handful of keys whose fingerprint masks to zero exercise
			// the 0→1 promotion (found by construction for small masks).
			wantFp := make([]uint16, n)
			wantFpw := make([]uint64, n)
			wantL1 := make([]uint32, n)
			wantL2 := make([]uint32, n)
			hashFillGeneric(keys, seedFp, seedIdx, fpMask, 0xfff, altOff,
				wantFp, wantFpw, wantL1, wantL2, n)
			gotFp := make([]uint16, n)
			gotFpw := make([]uint64, n)
			gotL1 := make([]uint32, n)
			gotL2 := make([]uint32, n)
			bestKernels.hashFill(keys, seedFp, seedIdx, fpMask, 0xfff, altOff,
				gotFp, gotFpw, gotL1, gotL2, n)
			for i := 0; i < n; i++ {
				if gotFp[i] != wantFp[i] || gotFpw[i] != wantFpw[i] ||
					gotL1[i] != wantL1[i] || gotL2[i] != wantL2[i] {
					t.Fatalf("fpBits=%d n=%d key %d (%#x): got fp=%#x fpw=%#x l1=%#x l2=%#x, want fp=%#x fpw=%#x l1=%#x l2=%#x",
						fpBits, n, i, keys[i], gotFp[i], gotFpw[i], gotL1[i], gotL2[i],
						wantFp[i], wantFpw[i], wantL1[i], wantL2[i])
				}
			}
		}
	}
}

func TestHashFillZeroPromotion(t *testing.T) {
	if Best() == EngineScalar {
		t.Skip("no hardware engine in this build")
	}
	// With fpMask=1 roughly half of all keys mask to zero, so a small
	// batch is guaranteed to exercise the promotion in the vector body.
	seedFp := hashing.Salt(0x2002)
	seedIdx := hashing.Salt(0x1001)
	altOff := []uint32{0, 5}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	n := len(keys)
	wantFp := make([]uint16, n)
	gotFp := make([]uint16, n)
	buf := func() ([]uint64, []uint32, []uint32) {
		return make([]uint64, n), make([]uint32, n), make([]uint32, n)
	}
	wfpw, wl1, wl2 := buf()
	gfpw, gl1, gl2 := buf()
	hashFillGeneric(keys, seedFp, seedIdx, 1, 7, altOff, wantFp, wfpw, wl1, wl2, n)
	bestKernels.hashFill(keys, seedFp, seedIdx, 1, 7, altOff, gotFp, gfpw, gl1, gl2, n)
	for i := 0; i < n; i++ {
		if gotFp[i] == 0 {
			t.Fatalf("key %d: vector kernel produced zero fingerprint", i)
		}
		if gotFp[i] != wantFp[i] || gfpw[i] != wfpw[i] || gl1[i] != wl1[i] || gl2[i] != wl2[i] {
			t.Fatalf("key %d: kernel mismatch fp=%#x want %#x", i, gotFp[i], wantFp[i])
		}
	}
}

func TestSetEngine(t *testing.T) {
	defer SetEngine("auto")
	if err := SetEngine("scalar"); err != nil {
		t.Fatal(err)
	}
	if Active() != EngineScalar {
		t.Fatalf("Active()=%q after SetEngine(scalar)", Active())
	}
	if err := SetEngine("auto"); err != nil {
		t.Fatal(err)
	}
	if Active() != Best() {
		t.Fatalf("Active()=%q Best()=%q after SetEngine(auto)", Active(), Best())
	}
	if err := SetEngine("made-up"); err == nil {
		t.Fatal("SetEngine accepted an unknown engine")
	}
}

func TestLaneHitsExact(t *testing.T) {
	// Exhaustive-ish check that laneHits reports exactly the equal lanes,
	// including the borrow-propagation patterns the SWAR any-test is known
	// to be exact for but a naive per-lane SWAR extractor is not.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200000; trial++ {
		f := uint16(r.Uint64()) | 1
		fpw := uint64(f) * laneLo
		var w uint64
		switch trial % 3 {
		case 0:
			w = r.Uint64()
		case 1:
			w = uint64(f-1)*laneLo ^ r.Uint64()&0x0001_0000_0001_0000
		case 2:
			w = fpw ^ 1<<(r.Intn(64))
		}
		var want uint8
		for lane := 0; lane < 4; lane++ {
			if uint16(w>>(16*lane)) == f {
				want |= 1 << lane
			}
		}
		if got := laneHits(w, fpw); got != want {
			t.Fatalf("laneHits(%#x, %#x) = %#x, want %#x", w, fpw, got, want)
		}
	}
}
