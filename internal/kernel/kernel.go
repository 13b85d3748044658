// Package kernel is the batched squared-L2 distance subsystem behind
// every hot path in the serving tier: the Flat exhaustive scan, both IVF
// stages (centroid ranking and inverted-list scans), the exact DB
// reference scan, and Fingerprint.L2Distance all bottom out here.
//
// Three implementations exist:
//
//   - generic: a portable pure-Go blocked scan (always present, and the
//     only one under `-tags noasm` or on architectures without an
//     assembly path).
//   - avx2: hand-written Go assembly (kernel_amd64.s) selected by
//     runtime CPU-feature dispatch on amd64 when the host supports
//     AVX2+OSXSAVE.
//   - neon: hand-written Go assembly (kernel_arm64.s) registered
//     unconditionally on arm64 — ASIMD is baseline ARMv8-A, so no
//     feature probe is needed.
//
// Bit-stability contract. Every implementation MUST produce bitwise
// identical float64 results for identical inputs, so indexes built,
// saved, and served on machines with different vector units agree
// exactly, and so the differential harness (kerneltest, the Fuzz*Parity
// targets) can assert equality rather than tolerances. To make that
// possible the summation order is part of the kernel's specification,
// not an implementation detail:
//
//	nblk = len &^ 7
//	p[k] = Σ_i t[8i+k]  for 8i+k < nblk, i ascending   (8 partial sums)
//	s    = ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7))       (fixed tree)
//	s   += t[j]  for j = nblk..len-1, j ascending       (scalar tail)
//
// where each term t[j] = d*d with d = float64(q[j]) - float64(v[j]),
// every operation IEEE-754 double rounded (no FMA). The AVX2 path
// realises exactly this order: two 4-lane double accumulators fed by
// VCVTPS2PD/VSUBPD/VMULPD/VADDPD, reduced with the fixed tree above,
// then a scalar tail.
//
// A result that is NaN is canonicalized to the math.NaN() bit pattern.
// Which input payload would otherwise survive the sum depends on x86
// ADDSD operand order, which the Go compiler is free to commute between
// builds — canonicalizing is what makes the contract total (bitwise
// equality for ALL inputs, and SqDist(q,v) == SqDist(v,q) exactly).
//
// The batched entry points (DistanceRows, DistanceGather,
// DistanceBatch) amortize memory traffic: DistanceBatch sweeps a block
// of vectors sized to stay cache-resident across a whole query batch,
// so a batch of B queries costs one pass over the data instead of B.
//
// Each Impl carries a Rows slot alongside its pair kernel: DistanceRows
// is one Rows call, DistanceBatch one per (query, block), so the row
// loop runs inside the implementation rather than as one indirect
// SqDist call per row. That matters most below 8 dims, where the
// blocked prefix is empty and the specified order reduces to the
// sequential tail, s = ((t0+t1)+t2)+… per row. IVFPQ's subspaces are
// 4 floats wide, so its table builds, k-means assignment and encoding
// are all such rows: the generic Rows unrolls dim 4 inline, and the
// AVX2 Rows converts four rows per iteration, transposes the four
// 4-lane term vectors so lane r holds row r's terms, and adds them in
// tail order — four rows in the cost of one, same bits. NEON's Rows is
// a Go loop over its pair kernel.
//
// Two more slots serve the IVFPQ backend (adc.go). ADCTable builds a
// query's M×256 lookup table in one call; the AVX2 version runs the
// four-row dim-4 path over all M codebooks and stores the float32
// results straight into the table. ADCScan scores rows of uint8 codes
// against that table; the AVX2 version loads each 8-subquantizer
// block's cells with one VGATHERDPS and accumulates them in the same
// two 4-lane double registers, fixed tree and scalar tail as the pair
// kernel. NEON fills both ADC slots with the portable kernels.
package kernel

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Impl is one registered distance implementation.
type Impl struct {
	// Name identifies the implementation: "generic", "avx2", or "neon".
	Name string
	// SqDist is the pair kernel: squared L2 distance between two
	// equal-length float32 vectors, computed per the package's
	// specified summation order.
	SqDist func(q, v []float32) float64
	// Rows is the contiguous-row kernel: out[i] = SqDist(q, row i of
	// vecs) for every i in [0, len(out)), in one call rather than one
	// per row. vecs holds at least len(out)*dim floats and len(q) ==
	// dim; DistanceRows validates both before dispatch.
	Rows func(q, vecs []float32, dim int, out []float64)
	// ADCScan is the product-quantization table-scan kernel (adc.go):
	// it scores rows of uint8 codes against one query's ADC lookup
	// table, per the specified summation order. Arguments are validated
	// by the package-level ADCScan before dispatch.
	ADCScan func(table []float32, codes []byte, m int, out []float64)
	// ADCTable builds one query's ADC lookup table from an m×ADCKs
	// codebook of dsub-float rows (adc.go), in one call for all m
	// subquantizers. Arguments are validated by the package-level
	// ADCTable before dispatch.
	ADCTable func(q, book []float32, m int, tab []float32)
}

// impls is the registry: the portable reference first, hardware paths
// appended by per-arch init (dispatch_amd64.go).
var impls = []Impl{{Name: "generic", SqDist: sqDistGeneric, Rows: distanceRowsGeneric,
	ADCScan: adcScanGeneric, ADCTable: adcTableGeneric}}

// active is the implementation SqDist and the batched entry points
// dispatch to. It is atomic so benchmarks can swap implementations while
// concurrent scans hold their own snapshot.
var active atomic.Pointer[Impl]

// init registers the architecture path (a no-op on builds without one)
// and dispatches to the best implementation available — the hardware
// path when registered, the portable reference otherwise.
func init() {
	registerArch()
	active.Store(&impls[len(impls)-1])
}

// Impls returns the registered implementations, the portable reference
// ("generic") first. On amd64 with AVX2 it also contains "avx2", on
// arm64 "neon" (both excluded under `-tags noasm`). The differential
// harness iterates this to cross-check every implementation against
// the reference.
func Impls() []Impl {
	out := make([]Impl, len(impls))
	copy(out, impls)
	return out
}

// Active returns the name of the implementation currently dispatched to.
func Active() string { return active.Load().Name }

// SetActive selects the dispatched implementation by name — the hook
// benchmarks and tests use to force the scalar reference on hardware
// that would auto-select AVX2 (build with `-tags noasm` to exclude the
// assembly entirely). It returns a restore function re-selecting the
// previous implementation.
func SetActive(name string) (restore func(), err error) {
	prev := active.Load()
	for i := range impls {
		if impls[i].Name == name {
			active.Store(&impls[i])
			return func() { active.Store(prev) }, nil
		}
	}
	return nil, fmt.Errorf("kernel: no implementation %q (have %v)", name, implNames())
}

func implNames() []string {
	names := make([]string, len(impls))
	for i, im := range impls {
		names[i] = im.Name
	}
	return names
}

// SqDist returns the squared L2 distance between q and v via the active
// implementation. It panics if the lengths differ; hot paths validate
// dimensions once per request, not per pair.
func SqDist(q, v []float32) float64 {
	if len(q) != len(v) {
		panic(fmt.Sprintf("kernel: SqDist length mismatch %d vs %d", len(q), len(v)))
	}
	return active.Load().SqDist(q, v)
}

// SqDistRef is the portable blocked reference implementation, exported
// under a fixed name so differential tests compare hardware paths
// against it regardless of which implementation is active.
func SqDistRef(q, v []float32) float64 {
	if len(q) != len(v) {
		panic(fmt.Sprintf("kernel: SqDistRef length mismatch %d vs %d", len(q), len(v)))
	}
	return sqDistGeneric(q, v)
}

// sqDistGeneric realises the specified summation order in portable Go.
// The explicit float64(d*d) conversions round each product before it is
// added, which forbids the compiler from fusing the pair into an FMA
// (as it otherwise may on arm64), so each operation rounds exactly as
// the assembly's packed equivalents.
func sqDistGeneric(q, v []float32) float64 {
	n := len(q) &^ 7
	var p [8]float64
	for j := 0; j < n; j += 8 {
		qq, vv := q[j:j+8], v[j:j+8]
		for k := 0; k < 8; k++ {
			d := float64(qq[k]) - float64(vv[k])
			p[k] += float64(d * d)
		}
	}
	s := ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]))
	for j := n; j < len(q); j++ {
		d := float64(q[j]) - float64(v[j])
		s += float64(d * d)
	}
	if s != s {
		return math.NaN() // canonical payload: see the contract above
	}
	return s
}

// blockRows returns how many dim-length rows fit the cache block the
// batched sweeps tile over (~32 KiB, roomy for L1d alongside the query
// and scratch). Always at least 1.
func blockRows(dim int) int {
	const blockBytes = 32 << 10
	r := blockBytes / (4 * dim)
	if r < 1 {
		r = 1
	}
	return r
}

// distanceRowsGeneric is the portable Rows slot. Below 8 dims the
// blocked prefix is empty (nblk = 0), so the fixed tree sums eight +0
// partials to +0 and each row's distance is its sequential tail alone:
// ((t0+t1)+t2)+… (+0 + t0 is t0 exactly, since t0 = d*d is never -0).
// At dim 4, the PQ subspace width, that order is unrolled inline here
// instead of going through the blocked pair kernel.
func distanceRowsGeneric(q, vecs []float32, dim int, out []float64) {
	if dim != 4 {
		for i := range out {
			out[i] = sqDistGeneric(q, vecs[i*dim:(i+1)*dim])
		}
		return
	}
	q0, q1, q2, q3 := float64(q[0]), float64(q[1]), float64(q[2]), float64(q[3])
	vecs = vecs[:4*len(out)]
	for i := range out {
		v := vecs[4*i : 4*i+4 : 4*i+4]
		d0 := q0 - float64(v[0])
		d1 := q1 - float64(v[1])
		d2 := q2 - float64(v[2])
		d3 := q3 - float64(v[3])
		s := ((float64(d0*d0) + float64(d1*d1)) + float64(d2*d2)) + float64(d3*d3)
		if s != s {
			s = math.NaN() // canonical payload, as in sqDistGeneric
		}
		out[i] = s
	}
}

// DistanceRows computes out[i] = SqDist(q, vecs[i*dim:(i+1)*dim]) for
// every row i in [0, len(out)). vecs must hold at least len(out)*dim
// floats and len(q) must equal dim. This is the contiguous-scan building
// block the Flat index, IVF centroid ranking and the PQ codebook (table
// build, k-means assignment, encoding) use; it is one call into the
// active implementation's Rows slot, not one call per row.
func DistanceRows(q, vecs []float32, dim int, out []float64) {
	if len(q) != dim {
		panic(fmt.Sprintf("kernel: DistanceRows query has %d dims, want %d", len(q), dim))
	}
	if len(vecs) < len(out)*dim {
		panic(fmt.Sprintf("kernel: DistanceRows %d floats for %d rows of %d", len(vecs), len(out), dim))
	}
	active.Load().Rows(q, vecs, dim, out)
}

// DistanceGather computes out[i] = SqDist(q, vecs[pos[i]*dim:...]) —
// the inverted-list scan building block, where candidate rows are
// scattered bucket positions rather than a contiguous range. len(pos)
// must equal len(out).
func DistanceGather(q, vecs []float32, dim int, pos []int32, out []float64) {
	if len(q) != dim {
		panic(fmt.Sprintf("kernel: DistanceGather query has %d dims, want %d", len(q), dim))
	}
	if len(pos) != len(out) {
		panic(fmt.Sprintf("kernel: DistanceGather %d positions but %d outputs", len(pos), len(out)))
	}
	fn := active.Load().SqDist
	for i, p := range pos {
		out[i] = fn(q, vecs[int(p)*dim:(int(p)+1)*dim])
	}
}

// DistanceBatch computes the full nq×n distance matrix between a query
// batch and a vector set: out[qi*n + i] = SqDist(query qi, vector i).
// queries is nq rows and vecs n rows, both row-major dim-length;
// len(out) must be nq*n. The sweep is blocked over vecs so each
// cache-resident block of vectors is visited by every query before the
// next block loads — one pass of memory traffic for the whole batch
// instead of one per query.
func DistanceBatch(queries, vecs []float32, dim int, out []float64) {
	if dim <= 0 {
		panic(fmt.Sprintf("kernel: DistanceBatch dim must be positive, got %d", dim))
	}
	if len(queries)%dim != 0 || len(vecs)%dim != 0 {
		panic(fmt.Sprintf("kernel: DistanceBatch ragged input: %d query floats, %d vector floats, dim %d",
			len(queries), len(vecs), dim))
	}
	nq, n := len(queries)/dim, len(vecs)/dim
	if len(out) != nq*n {
		panic(fmt.Sprintf("kernel: DistanceBatch out has %d cells, want %d×%d", len(out), nq, n))
	}
	rows := active.Load().Rows
	block := blockRows(dim)
	for r0 := 0; r0 < n; r0 += block {
		r1 := min(r0+block, n)
		for qi := 0; qi < nq; qi++ {
			rows(queries[qi*dim:(qi+1)*dim], vecs[r0*dim:r1*dim], dim, out[qi*n+r0:qi*n+r1])
		}
	}
}
