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

//go:noescape
func adcScanAVX2(table *float32, codes *byte, m, n int, out *float64)

//go:noescape
func adcTableAVX2(q, book *float32, m int, tab *float32)

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

// adcScanAsm is the ADCScan slot: the row loop, one VGATHERDPS per
// 8-subquantizer block, the reduction and the scalar tail all run in
// assembly. Callers have validated the shapes.
func adcScanAsm(table []float32, codes []byte, m int, out []float64) {
	if len(out) == 0 {
		return
	}
	if m == 0 {
		clear(out) // the empty sum, as in the reference
		return
	}
	adcScanAVX2(&table[0], &codes[0], m, len(out), &out[0])
}

// adcTableAsm is the ADCTable slot. At dsub 4 one assembly call builds
// the whole table four codebook rows at a time; other widths loop the
// Rows slot per subquantizer.
func adcTableAsm(q, book []float32, m int, tab []float32) {
	if len(q) != 4*m {
		adcTableRows(distanceRowsAsm, q, book, m, tab)
		return
	}
	adcTableAVX2(&q[0], &book[0], m, &tab[0])
}

// registerArch appends the AVX2 path when the host supports it; called
// once from the package init before the dispatch default is chosen.
func registerArch() {
	if hasAVX2() {
		impls = append(impls, Impl{Name: "avx2", SqDist: sqDistAsm, Rows: distanceRowsAsm,
			ADCScan: adcScanAsm, ADCTable: adcTableAsm})
	}
}
