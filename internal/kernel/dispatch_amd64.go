//go:build amd64 && !noasm

package kernel

// CPU-feature dispatch for the AVX2 assembly path. The kernel needs
// AVX (256-bit double arithmetic + VEXTRACTF128) with OS-enabled YMM
// state; we additionally require AVX2, matching the path's name and the
// CPU generation it is tuned for. Build with `-tags noasm` to exclude
// the assembly and force the portable reference.

// Assembly routines (kernel_amd64.s).
//
//go:noescape
func sqDistAVX2(q, v *float32, n int) float64

//go:noescape
func distanceRowsAVX2(q, vecs *float32, dim, n int, out *float64)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports AVX2 support with OS-managed YMM state: CPUID.1:ECX
// OSXSAVE(27)+AVX(28), XCR0 SSE+AVX state enabled, CPUID.7.0:EBX AVX2(5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state both OS-enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func sqDistAsm(q, v []float32) float64 {
	if len(q) == 0 {
		return 0
	}
	return sqDistAVX2(&q[0], &v[0], len(q))
}

// distanceRowsAsm is the Rows slot: the whole row loop runs in
// assembly. Callers have validated len(q) == dim and
// len(vecs) >= len(out)*dim.
func distanceRowsAsm(q, vecs []float32, dim int, out []float64) {
	if len(out) == 0 {
		return
	}
	if dim == 0 {
		clear(out) // empty rows are +0 apart, as in the reference
		return
	}
	distanceRowsAVX2(&q[0], &vecs[0], dim, len(out), &out[0])
}

// registerArch appends the AVX2 path when the host supports it; called
// once from the package init before the dispatch default is chosen.
// The ADC slot currently points at the portable scan — table lookups
// are load-bound and the blocked reference already saturates them; the
// dispatch slot is where a VPGATHERDD path lands without touching any
// caller, held to the reference by kerneltest.CheckADC/FuzzADCParity.
func registerArch() {
	if hasAVX2() {
		impls = append(impls, Impl{Name: "avx2", SqDist: sqDistAsm, Rows: distanceRowsAsm, ADCScan: adcScanGeneric})
	}
}
