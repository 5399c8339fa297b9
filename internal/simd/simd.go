// Package simd is the vectorized probe-kernel layer of the batch query
// pipeline. It owns two kernels, each shaped for one phase of
// internal/core's tile pipeline over whole 256-key tiles:
//
//	HashFill   phase 1 — the splitmix64 key derivations (fingerprint,
//	           home bucket, alternate bucket via the altOff memo) for
//	           every key of a tile
//	MaskSlots  phase 2 — the exact per-slot hit masks of both candidate
//	           buckets of every key, read in place from the fingerprint
//	           array, with software prefetch of the buckets a fixed
//	           distance ahead and of each bucket's first hit slot's
//	           flags byte and attribute vector, so the settle that
//	           follows reads cached lines
//
// Every kernel has a pure-Go scalar implementation (generic.go) that is
// the semantic reference: the vector forms must match it bit for bit, and
// FuzzSIMDEquivalence in internal/core holds them to that. Hardware
// kernels exist for amd64 (AVX2 + BMI2, runtime-detected via hand-rolled
// CPUID/XGETBV). The `noasm` build tag compiles none of the assembly and
// pins the scalar engine, which also serves every other GOARCH, arm64
// included.
//
// The package is dependency-free beyond the stdlib and internal/hashing,
// allocates nothing, and its kernels are safe for concurrent readers:
// they read only the caller's table slices and write only into the
// caller's scratch.
package simd

import (
	"fmt"
	"sync/atomic"
)

// Engine names, as reported by Active and accepted by SetEngine.
const (
	EngineScalar = "scalar"
	EngineAVX2   = "avx2"
)

// kernels bundles one engine's kernel implementations.
type kernels struct {
	name     string
	hashFill func(keys []uint64, seedFp, seedIdx uint64, fpMask uint16,
		idxMask uint32, altOff []uint32, fp []uint16, fpw []uint64, l1, l2 []uint32, n int)
	maskSlots func(fps []uint16, flags []uint8, attrs []uint16, bsz, nattr int,
		l1, l2 []uint32, fpw []uint64, m1, m2 []uint8, n int)
}

var scalarKernels = kernels{
	name:      EngineScalar,
	hashFill:  hashFillGeneric,
	maskSlots: maskSlotsGeneric,
}

// bestKernels is the fastest engine the hardware supports, chosen once by
// the per-arch init; SetEngine("auto") reinstates it. It defaults to
// scalar and is only ever reassigned during package init.
var bestKernels = &scalarKernels

// active is the engine every exported kernel dispatches through. It is
// an atomic pointer so SetEngine is safe against in-flight probes, but
// switching is a boot-time configuration act, not a hot-path one.
var active atomic.Pointer[kernels]

// archInit is defined exactly once per build configuration (amd64, or
// the noasm/other-arch fallback) and performs feature detection,
// setting features and bestKernels. Calling it from here — rather than
// from per-file init funcs — pins the order: detect first, then publish,
// independent of file-name init sequencing.
func init() {
	archInit()
	active.Store(bestKernels)
}

// features is the detected CPU feature string, set by the per-arch init
// (e.g. "sse4.2 avx avx2 bmi1 bmi2"); empty means no detection ran.
var features string

// Active returns the name of the engine currently serving the kernels.
func Active() string { return active.Load().name }

// Best returns the name of the fastest engine the hardware supports —
// what "auto" resolves to.
func Best() string { return bestKernels.name }

// Features returns the detected CPU feature string, independent of which
// engine is active ("" when the platform has no detector).
func Features() string { return features }

// SetEngine selects the probe engine: "auto" (the detected best),
// "scalar" (force the pure-Go fallback), or an explicit engine name,
// which errors when the hardware or build does not support it. It is
// meant for boot-time flags and differential tests; in-flight batch
// probes finish on whichever engine they started with.
func SetEngine(name string) error {
	switch name {
	case "", "auto":
		active.Store(bestKernels)
		return nil
	case EngineScalar:
		active.Store(&scalarKernels)
		return nil
	case bestKernels.name:
		active.Store(bestKernels)
		return nil
	default:
		return fmt.Errorf("simd: engine %q not available (have %q and %q)",
			name, bestKernels.name, EngineScalar)
	}
}

// HashFill runs phase 1 for the first n keys: fp[i] gets the nonzero
// fingerprint mix64(keys[i]^seedFp)&fpMask (0 promoted to 1), fpw[i] its
// broadcast into all four 16-bit lanes, l1[i] the home bucket
// mix64(keys[i]^seedIdx)&idxMask, and l2[i] the alternate bucket
// l1[i]^altOff[fp[i]]. seedFp and seedIdx are the pre-mixed salts
// (hashing.Salt of the filter's salted seed), so the kernel is two
// mix64 finalizers and a memo lookup per key; altOff must have at least
// fpMask+1 entries.
func HashFill(keys []uint64, seedFp, seedIdx uint64, fpMask uint16,
	idxMask uint32, altOff []uint32, fp []uint16, fpw []uint64, l1, l2 []uint32, n int) {
	active.Load().hashFill(keys, seedFp, seedIdx, fpMask, idxMask, altOff, fp, fpw, l1, l2, n)
}

// MaskSlots runs phase 2 for the first n keys: m1[i] and m2[i] get the
// exact per-slot hit masks (SlotMask) of buckets l1[i] and l2[i] for the
// fingerprint broadcast in fpw[i], read in place from fps, a table of
// bsz-slot buckets with bsz at most MaxSlots. flags and attrs are the
// table's per-slot flags and nattr-wide attribute vectors (attrs may be
// empty); the kernel only prefetches them. The hardware engine issues
// PREFETCHT0 for the buckets of the key a fixed distance ahead, so a
// tile's cache misses overlap beyond the out-of-order window, and on a
// hit it prefetches the first hit slot's flags byte and attribute vector
// for the settle that follows. Sizes below 4 run the scalar reference on
// every engine.
func MaskSlots(fps []uint16, flags []uint8, attrs []uint16, bsz, nattr int,
	l1, l2 []uint32, fpw []uint64, m1, m2 []uint8, n int) {
	active.Load().maskSlots(fps, flags, attrs, bsz, nattr, l1, l2, fpw, m1, m2, n)
}
