package simd

import (
	"syscall"
	"testing"
	"unsafe"
)

// TestMaskSlotsStaysInsideTable ends the table's last bucket at an
// unreadable page, so a kernel that loaded a byte past the bucket's last
// slot would fault instead of masking the stray lanes away.
func TestMaskSlotsStaysInsideTable(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skip(err)
	}
	const m = 32
	for bsz := 1; bsz <= MaxSlots; bsz++ {
		n := m * bsz
		fps := unsafe.Slice((*uint16)(unsafe.Pointer(&mem[page-2*n])), n)
		for i := range fps {
			fps[i] = uint16(i%3 + 1)
		}
		flags := make([]uint8, n)
		l1, l2 := make([]uint32, m), make([]uint32, m)
		fpw, m1, m2 := make([]uint64, m), make([]uint8, m), make([]uint8, m)
		for i := range l1 {
			l1[i], l2[i] = uint32(i), m-1
			fpw[i] = uint64(i%3+1) * laneLo
		}
		MaskSlots(fps, flags, nil, bsz, 0, l1, l2, fpw, m1, m2, m)
		for i := range l1 {
			fp := uint16(fpw[i])
			w1, w2 := naiveMask(fps, bsz, l1[i], fp), naiveMask(fps, bsz, l2[i], fp)
			if m1[i] != w1 || m2[i] != w2 {
				t.Fatalf("b=%d key %d: got (%#x,%#x) want (%#x,%#x)", bsz, i, m1[i], m2[i], w1, w2)
			}
		}
	}
}
