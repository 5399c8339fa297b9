//go:build noasm || !amd64

package simd

// No hardware kernels in this build configuration: either the noasm tag
// excluded the assembly, or the architecture has none. The scalar
// reference kernels serve every probe; bestKernels keeps its default.

func archInit() {
	features = "generic"
}
