//go:build !amd64 || purego

package gemm

// haveAsmKernels is false off amd64 (or under -tags purego): every kernel
// runs through the portable scalar implementations in generic.go. An
// arm64 NEON port slots in here — the panel layout (vectors over output
// columns, packed Bᵀ for the NT forms) is ISA-agnostic.
const haveAsmKernels = false

// The stubs keep the dispatchers (and the asm-vs-generic fuzz harness)
// portable; they are never reached from the exported kernels when
// haveAsmKernels is false.

func f32Asm(c, a, b []float32, m, k, n int)       { f32Generic(c, a, b, m, k, n, 0) }
func s8Asm(c []int32, a, b []int8, m, k, n int)   { s8Generic(c, a, b, m, k, n, 0) }
func f32NTAsm(c, a, b []float32, m, k, n int)     { f32NTGeneric(c, a, b, m, k, n) }
func s8NTAsm(c []int32, a, b []int8, m, k, n int) { s8NTGeneric(c, a, b, m, k, n, 0) }

func rescaleAsm(dst []int8, acc []int32, bias int32, mult float32, lo float64) int {
	rescaleGeneric(dst, acc, bias, mult, lo)
	return len(acc)
}

func quantizeAsm(dst []int8, x []float32, scale float32, lo float64) int {
	quantizeGeneric(dst, x, scale, lo)
	return len(x)
}
