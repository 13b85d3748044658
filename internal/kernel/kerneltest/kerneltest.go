// Package kerneltest provides the differential-testing helpers that
// cross-check every registered distance-kernel implementation against
// the portable reference on adversarial inputs: dimensions that are not
// multiples of the vector width, length-0/1 vectors, NaN/Inf/subnormal
// values, and slices whose base pointers are not vector-aligned. The
// kernel package's own property tests and the native Go fuzz targets
// (FuzzDistanceParity, FuzzDistanceBatchParity, FuzzADCParity,
// FuzzADCTableParity) all build on it.
package kerneltest

import (
	"encoding/binary"
	"math"
	"testing"

	"caltrain/internal/kernel"
)

// Dims are the adversarial vector lengths every sweep covers: zero, the
// scalar tail alone (< 8), exact multiples of the 8-wide block, one
// element either side of each boundary, and a couple of realistic
// embedding sizes.
func Dims() []int {
	return []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 1000}
}

// Specials are adversarial float32 values sprinkled into test vectors:
// quiet/signalling NaN payloads, both infinities, extreme magnitudes,
// subnormals, and signed zero.
func Specials() []float32 {
	return []float32{
		float32(math.NaN()),
		math.Float32frombits(0x7f800001), // signalling NaN
		math.Float32frombits(0x7fc00123), // quiet NaN, nonzero payload
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		math.MaxFloat32,
		-math.MaxFloat32,
		math.SmallestNonzeroFloat32,      // subnormal
		-math.SmallestNonzeroFloat32,     // negative subnormal
		math.Float32frombits(0x00400000), // mid-range subnormal
		0,
		float32(math.Copysign(0, -1)), // negative zero
	}
}

// FromBytes reinterprets b as little-endian float32s, dropping any
// ragged tail — how the fuzz targets turn raw corpus bytes into
// vectors, so NaN payloads, infinities, and subnormals arise naturally
// from the byte space rather than from a hand-picked list.
func FromBytes(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// Pair derives two equal-length query/vector slices from raw fuzz
// bytes. off (mod 4) shifts both slices off the start of a shared
// backing array, so their base pointers land at 4-byte — not 16- or
// 32-byte — alignments and the assembly's unaligned loads are
// exercised.
func Pair(qb, vb []byte, off uint8) (q, v []float32) {
	shift := int(off) % 4
	qf := FromBytes(qb)
	vf := FromBytes(vb)
	n := min(len(qf), len(vf))
	if shift > n {
		shift = n
	}
	return qf[shift:n], vf[shift:n]
}

// CheckPair fails t unless every registered implementation returns the
// reference's exact float64 bits for (q, v) and for (v, q). NaN results
// are canonicalized by the kernel contract, so exact equality holds for
// every input — NaN payloads, infinities, and subnormals included.
func CheckPair(t testing.TB, q, v []float32) {
	t.Helper()
	checkOrder(t, q, v)
	checkOrder(t, v, q)
}

func checkOrder(t testing.TB, q, v []float32) {
	t.Helper()
	want := kernel.SqDistRef(q, v)
	for _, im := range kernel.Impls() {
		got := im.SqDist(q, v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("impl %q: SqDist = %v (%#016x), reference %v (%#016x)\nq = %v\nv = %v",
				im.Name, got, math.Float64bits(got), want, math.Float64bits(want), q, v)
		}
	}
	if got := kernel.SqDist(q, v); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("dispatched SqDist (%s) = %v (%#016x), reference %v (%#016x)",
			kernel.Active(), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// CheckADC fails t unless every registered implementation's ADC
// table scan returns the reference's exact float64 bits over (table,
// codes), and over a copy of table laced with Specials() so NaN
// payloads, infinities and subnormals reach every gather lane: same
// fixed reduction tree, same canonical NaN, any m. table must be
// m×ADCKs floats; trailing code bytes short of a full m-byte row are
// dropped.
func CheckADC(t testing.TB, table []float32, codes []byte, m int) {
	t.Helper()
	if m <= 0 {
		t.Fatalf("CheckADC needs m ≥ 1, got %d", m)
	}
	rows := len(codes) / m
	codes = codes[:rows*m]
	want := make([]float64, rows)
	got := make([]float64, rows)
	for _, tab := range [][]float32{table, Lace(table, 5)} {
		kernel.ADCScanRef(tab, codes, m, want)
		check := func(name string) {
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: ADCScan[%d] = %v (%#016x), reference %v (%#016x) (m=%d, rows=%d)\ncodes = %v",
						name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), m, rows, codes[i*m:(i+1)*m])
				}
			}
		}
		for _, im := range kernel.Impls() {
			fill(got, -1)
			im.ADCScan(tab, codes, m, got)
			check("impl " + im.Name)
		}
		fill(got, -1)
		kernel.ADCScan(tab, codes, m, got)
		check("dispatched (" + kernel.Active() + ")")
	}
}

// CheckADCTable fails t unless every registered implementation's ADC
// table build, and the dispatched kernel.ADCTable, write exactly
// float32(SqDistRef(subvector j, row j·ADCKs+k)) into every cell, over
// book and over a copy laced with Specials(). A NaN cell must carry
// the canonical float32 NaN bits, 0x7FC00000. book must hold m×ADCKs
// rows of len(q)/m floats.
func CheckADCTable(t testing.TB, q, book []float32, m int) {
	t.Helper()
	if m <= 0 || len(q)%m != 0 || len(book) != kernel.ADCKs*len(q) {
		t.Fatalf("CheckADCTable: bad shape: %d query floats, m=%d, %d codebook floats", len(q), m, len(book))
	}
	dsub := len(q) / m
	want := make([]float32, m*kernel.ADCKs)
	got := make([]float32, len(want))
	for _, b := range [][]float32{book, Lace(book, 5)} {
		for j := 0; j < m; j++ {
			for k := 0; k < kernel.ADCKs; k++ {
				row := j*kernel.ADCKs + k
				w := float32(kernel.SqDistRef(q[j*dsub:(j+1)*dsub], b[row*dsub:(row+1)*dsub]))
				if w != w && math.Float32bits(w) != 0x7FC00000 {
					t.Fatalf("reference cell (%d, %d) is NaN %#08x, not the canonical 0x7fc00000", j, k, math.Float32bits(w))
				}
				want[row] = w
			}
		}
		check := func(name string) {
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					j, k := i/kernel.ADCKs, i%kernel.ADCKs
					t.Fatalf("%s: ADCTable cell (%d, %d) = %v (%#08x), reference %v (%#08x) (m=%d, dsub=%d)\nq_j = %v\nrow = %v",
						name, j, k, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]), m, dsub,
						q[j*dsub:(j+1)*dsub], b[i*dsub:(i+1)*dsub])
				}
			}
		}
		for _, im := range kernel.Impls() {
			fill(got, -1)
			im.ADCTable(q, b, m, got)
			check("impl " + im.Name)
		}
		fill(got, -1)
		kernel.ADCTable(q, b, m, got)
		check("dispatched (" + kernel.Active() + ")")
	}
}

// fill sets every element of s to v, so a kernel that skips a cell
// cannot pass on a stale value.
func fill[T float32 | float64](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Lace returns a copy of v with a special value written every stride-th
// element, cycling through Specials() — ordinary rows with NaN
// payloads, infinities, subnormals and signed zeros landing in every
// lane position over the sweep.
func Lace(v []float32, stride int) []float32 {
	sp := Specials()
	out := append([]float32(nil), v...)
	for i, k := 0, 0; i < len(out); i, k = i+stride, k+1 {
		out[i] = sp[k%len(sp)]
	}
	return out
}

// CheckBatch fails t unless the batched entry points (DistanceBatch,
// DistanceRows, DistanceGather) and every registered implementation's
// Rows slot agree cell-for-cell, in exact bits, with pairwise reference
// calls over the same queries and vectors — and, for the Rows slots,
// over a copy of the vectors laced with Specials() too. queries and
// vecs are row-major dim-length rows.
func CheckBatch(t testing.TB, queries, vecs []float32, dim int) {
	t.Helper()
	if dim <= 0 {
		t.Fatalf("CheckBatch needs dim ≥ 1, got %d", dim)
	}
	nq, n := len(queries)/dim, len(vecs)/dim
	queries, vecs = queries[:nq*dim], vecs[:n*dim]
	laced := Lace(vecs, 5)
	out := make([]float64, nq*n)
	kernel.DistanceBatch(queries, vecs, dim, out)
	rows := make([]float64, n)
	gathered := make([]float64, n)
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(n - 1 - i) // reversed gather order
	}
	for qi := 0; qi < nq; qi++ {
		q := queries[qi*dim : (qi+1)*dim]
		kernel.DistanceRows(q, vecs, dim, rows)
		kernel.DistanceGather(q, vecs, dim, pos, gathered)
		for i := 0; i < n; i++ {
			want := kernel.SqDistRef(q, vecs[i*dim:(i+1)*dim])
			if got := out[qi*n+i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DistanceBatch[%d,%d] = %v, reference %v (dim=%d, nq=%d, n=%d)", qi, i, got, want, dim, nq, n)
			}
			if got := rows[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DistanceRows[%d,%d] = %v, reference %v (dim=%d)", qi, i, got, want, dim)
			}
			if got := gathered[n-1-i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DistanceGather[%d,pos %d] = %v, reference %v (dim=%d)", qi, i, got, want, dim)
			}
		}
		for _, v := range [][]float32{vecs, laced} {
			for _, im := range kernel.Impls() {
				fill(rows, -1)
				im.Rows(q, v, dim, rows)
				for i := 0; i < n; i++ {
					want := kernel.SqDistRef(q, v[i*dim:(i+1)*dim])
					if got := rows[i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("impl %q: Rows[%d,%d] = %v (%#016x), reference %v (%#016x) (dim=%d, n=%d)\nq = %v\nv = %v",
							im.Name, qi, i, got, math.Float64bits(got), want, math.Float64bits(want), dim, n, q, v[i*dim:(i+1)*dim])
					}
				}
			}
		}
	}
}
