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

func f32Asm(c, a, b []float32, m, k, n int)   { f32Generic(c, a, b, m, k, n, 0) }
func f32NTAsm(c, a, b []float32, m, k, n int) { f32NTGeneric(c, a, b, m, k, n) }

func rescaleAsm(dst []int8, acc []int32, bias int32, mult float32, lo float64) int {
	rescaleGeneric(dst, acc, bias, mult, lo)
	return len(acc)
}

func quantizeAsm(dst []int8, x []float32, scale float32, lo float64) int {
	quantizeGeneric(dst, x, scale, lo)
	return len(x)
}

// s8Level is always the portable kernel here.
var s8Level = kernelGeneric

// s8Kernels lists the one panel kernel these builds have.
func s8Kernels() []s8Kernel { return []s8Kernel{kernelGeneric} }

func s8PackA(dst []int16, a []int8, m, k int)   { packAGeneric(dst, a, m, k) }
func s8PackBT(dst []int16, b []int8, k, np int) { packBTGeneric(dst, b, 16*np, k, 0) }
func s8PackRows(dst *int16, src *int8, offs *int, stride, pairs, kp, np int) {
	panic("gemm: no asm packer in portable builds")
}
func s8PackQuads(dst *uint8, src *int8, offs *int, stride, quads, kq, np int) {
	panic("gemm: no asm packer in portable builds")
}
func s8PairsAsm(c *int32, a, b *int16, m, kp, ldc, np int) {
	panic("gemm: no asm panel kernel in portable builds")
}
func s8QuadsAsm(c *int32, a *int8, b *uint8, m, kq, ldc, np int, corr *int32) {
	panic("gemm: no asm panel kernel in portable builds")
}
func s8RescaleVNNI(c *int8, a *int8, b *uint8, m, steps, ldc, np int, corr, bias *int32, mult *float32, last int, lo float32) {
	panic("gemm: no asm panel kernel in portable builds")
}

// rowSum returns the int32 sum of row, wrapping like Go's.
func rowSum(row []int8) int32 {
	var s int32
	for _, v := range row {
		s += int32(v)
	}
	return s
}
