//go:build arm64 && !noasm

package kernel

// NEON dispatch for the arm64 assembly path. Advanced SIMD (ASIMD) is
// part of the baseline ARMv8-A profile Go requires on arm64, so unlike
// the amd64 AVX2 path there is no CPU-feature probe — the path is
// registered unconditionally. Build with `-tags noasm` to exclude the
// assembly and force the portable reference.

// Assembly routine (kernel_arm64.s).
//
//go:noescape
func sqDistNEON(q, v *float32, n int) float64

func sqDistAsm(q, v []float32) float64 {
	if len(q) == 0 {
		return 0
	}
	return sqDistNEON(&q[0], &v[0], len(q))
}

// distanceRowsNEON is the Rows slot: a Go loop over the pair kernel.
func distanceRowsNEON(q, vecs []float32, dim int, out []float64) {
	for i := range out {
		out[i] = sqDistAsm(q, vecs[i*dim:(i+1)*dim])
	}
}

// registerArch appends the NEON path; called once from the package init
// before the dispatch default is chosen. Both ADC slots use the
// portable kernels: a TBL-based scan or a dedicated table path lands in
// them without touching any caller, held to the reference by
// kerneltest.CheckADC/CheckADCTable and the FuzzADC* targets.
func registerArch() {
	impls = append(impls, Impl{Name: "neon", SqDist: sqDistAsm, Rows: distanceRowsNEON,
		ADCScan: adcScanGeneric, ADCTable: adcTableGeneric})
}
