//go:build amd64 && !purego

package gemm

// s8Level is the int8 panel kernel S8Panels runs — and so the operand
// layout PackA, PackBT and Resize pack — chosen once at init: the VNNI
// forms on quads where the CPU has VPDPBUSD (the 512-bit one first), AVX2
// on pairs where it has 256-bit integer ops, SSE2 on pairs otherwise.
// From AVX2 up it also widens the requantize rows to 16 lanes. There is
// no flag or environment override; the kernels are exact-integer equal,
// so the choice changes only speed. Tests force each supported kernel in
// turn, repacking their operands.
var s8Level = func() s8Kernel {
	ks := s8Kernels()
	return ks[len(ks)-1]
}()

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the register state the operating
// system saves across context switches.
func xgetbv0() uint32

// s8Kernels lists the panel kernels this CPU can run, in ascending order
// of preference.
func s8Kernels() []s8Kernel {
	ks := []s8Kernel{kernelSSE2}
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return ks
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return ks
	}
	xcr0 := xgetbv0()
	const ymmState, zmmState = 0x06, 0xe6 // XMM|YMM, plus opmask and ZMM
	if xcr0&ymmState != ymmState {
		return ks
	}
	maxSub, ebx, ecx, _ := cpuid(7, 0)
	const avx2, avx512f, avx512vnni = 1 << 5, 1 << 16, 1 << 11
	if ebx&avx2 == 0 {
		return ks
	}
	ks = append(ks, kernelAVX2)
	if maxSub >= 1 {
		const avxvnni = 1 << 4
		if eax, _, _, _ := cpuid(7, 1); eax&avxvnni != 0 {
			ks = append(ks, kernelAVXVNNI)
		}
	}
	if xcr0&zmmState == zmmState && ebx&avx512f != 0 && ecx&avx512vnni != 0 {
		ks = append(ks, kernelVNNI)
	}
	return ks
}
