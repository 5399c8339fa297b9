package simd

import "ccf/internal/hashing"

// The pure-Go kernels. These are the reference semantics for every
// hardware engine, the fallback on unsupported architectures and under
// the noasm build tag, and the tail path of the vector wrappers (which
// hand off whatever remainder their unroll width leaves).

// Lane constants for four 16-bit fingerprint lanes in one word: laneLo
// has the low bit of each lane set, laneHi the high bit.
const (
	laneLo = 0x0001_0001_0001_0001
	laneHi = 0x8000_8000_8000_8000
)

// MaxSlots is the largest bucket size the mask kernels take: a bucket's
// hit mask is one byte.
const MaxSlots = 8

// laneHits returns the exact per-lane equality mask of w against the
// fingerprint broadcast in fpw: bit j is set iff 16-bit lane j matches.
// Adding 0x7fff to a lane's low 15 bits cannot carry into the next lane,
// so unlike the borrow form of the has-zero-lane test this zero test
// never over-reports; one multiply then gathers the four lane indicators
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

// SlotMask returns the exact per-slot hit mask of one bucket of fps, a
// table of bsz-slot buckets, for the fingerprint fp: bit j is set iff
// slot j of the bucket holds it. Sizes 4–8 compare two overlapping
// 4-lane windows, slots 0–3 and bsz−4…bsz−1, which stay inside the
// bucket and OR together idempotently; smaller sizes scan. bsz must be
// at most MaxSlots.
func SlotMask(fps []uint16, bsz int, bucket uint32, fp uint16) uint8 {
	base := int(bucket) * bsz
	s := fps[base : base+bsz]
	if bsz < 4 {
		var m uint8
		for j, v := range s {
			if v == fp {
				m |= 1 << j
			}
		}
		return m
	}
	hi, fpw := bsz-4, uint64(fp)*laneLo
	return laneHits(load4(s), fpw) | laneHits(load4(s[hi:]), fpw)<<hi
}

func maskSlotsGeneric(fps []uint16, flags []uint8, attrs []uint16, bsz, nattr int,
	l1, l2 []uint32, fpw []uint64, m1, m2 []uint8, n int) {
	for i := 0; i < n; i++ {
		m1[i] = SlotMask(fps, bsz, l1[i], uint16(fpw[i]))
		m2[i] = SlotMask(fps, bsz, l2[i], uint16(fpw[i]))
	}
}

func hashFillGeneric(keys []uint64, seedFp, seedIdx uint64, fpMask uint16,
	idxMask uint32, altOff []uint32, fp []uint16, fpw []uint64, l1, l2 []uint32, n int) {
	for i := 0; i < n; i++ {
		k := keys[i]
		f := uint16(hashing.Mix64(k^seedFp)) & fpMask
		if f == 0 {
			f = 1
		}
		fp[i] = f
		fpw[i] = uint64(f) * laneLo
		b := uint32(hashing.Mix64(k^seedIdx)) & idxMask
		l1[i] = b
		l2[i] = b ^ altOff[f]
	}
}
