//go:build amd64 && !noasm

package simd

import "strings"

// Hand-rolled CPUID feature detection — no golang.org/x/sys/cpu import.
// The AVX2 engine needs three things to be safe and fast: the AVX2 and
// BMI2 instruction sets (Haswell+; BMI2's PEXT compacts the mask
// kernel's lane bits), and OS support for the YMM register state
// (OSXSAVE set and XCR0 advertising SSE+AVX state saving — without it
// the kernel would fault on the first VEX instruction after a context
// switch).

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func archInit() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		features = "cpuid-unavailable"
		return
	}
	_, _, ecx1, edx1 := cpuid(1, 0)
	var have []string
	flag := func(on bool, name string) bool {
		if on {
			have = append(have, name)
		}
		return on
	}
	flag(edx1&(1<<26) != 0, "sse2")
	flag(ecx1&(1<<20) != 0, "sse4.2")
	flag(ecx1&(1<<23) != 0, "popcnt")
	osxsave := ecx1&(1<<27) != 0
	avx := flag(ecx1&(1<<28) != 0, "avx")
	ymmOS := false
	if osxsave {
		// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS saves
		// and restores YMM state across context switches.
		lo, _ := xgetbv()
		ymmOS = lo&0x6 == 0x6
	}
	flag(ymmOS, "osxsave-ymm")
	avx2, bmi2 := false, false
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = flag(ebx7&(1<<5) != 0, "avx2")
		flag(ebx7&(1<<3) != 0, "bmi1")
		bmi2 = flag(ebx7&(1<<8) != 0, "bmi2")
	}
	features = strings.Join(have, " ")
	if avx && ymmOS && avx2 && bmi2 {
		bestKernels = &avx2Kernels
	}
}

// avx2Kernels wires the AVX2 assembly bodies behind their wrappers
// (the hash kernel works in groups of four keys; remainders, like
// buckets too small for the mask kernel, fall through to the scalar
// reference).
var avx2Kernels = kernels{
	name:      EngineAVX2,
	hashFill:  hashFillAVX2Wrap,
	maskSlots: maskSlotsAVX2Wrap,
}

func hashFillAVX2Wrap(keys []uint64, seedFp, seedIdx uint64, fpMask uint16,
	idxMask uint32, altOff []uint32, fp []uint16, fpw []uint64, l1, l2 []uint32, n int) {
	q := n &^ 3
	if q > 0 {
		hashFillAVX2(&keys[0], q, seedFp, seedIdx, uint64(fpMask), uint64(idxMask),
			&altOff[0], &fp[0], &fpw[0], &l1[0], &l2[0])
	}
	if q < n {
		hashFillGeneric(keys[q:], seedFp, seedIdx, fpMask, idxMask, altOff,
			fp[q:], fpw[q:], l1[q:], l2[q:], n-q)
	}
}

func maskSlotsAVX2Wrap(fps []uint16, flags []uint8, attrs []uint16, bsz, nattr int,
	l1, l2 []uint32, fpw []uint64, m1, m2 []uint8, n int) {
	if bsz < 4 || n == 0 {
		maskSlotsGeneric(fps, flags, attrs, bsz, nattr, l1, l2, fpw, m1, m2, n)
		return
	}
	_, _, _, _, _ = l1[n-1], l2[n-1], fpw[n-1], m1[n-1], m2[n-1]
	// The kernel prefetches a hit slot's attribute vector unconditionally;
	// a table without attribute vectors points it at fps[0] instead.
	ap, na := &fps[0], 0
	if len(attrs) > 0 {
		ap, na = &attrs[0], nattr
	}
	// PEXT keeps VPMOVMSKB's even bits: slots 0–3 from the low window,
	// slots 4…bsz−1 from the top of the high one.
	pext := uint64(0x55 | 0x5500&^(1<<(24-2*bsz)-1))
	maskSlotsAVX2(&fps[0], &flags[0], ap, bsz, na,
		&l1[0], &l2[0], &fpw[0], &m1[0], &m2[0], n, pext)
}

//go:noescape
func hashFillAVX2(keys *uint64, n int, seedFp, seedIdx, fpMask, idxMask uint64,
	altOff *uint32, fp *uint16, fpw *uint64, l1, l2 *uint32)

//go:noescape
func maskSlotsAVX2(fps *uint16, flags *uint8, attrs *uint16, bsz, nattr int,
	l1, l2 *uint32, fpw *uint64, m1, m2 *uint8, n int, pext uint64)
