package kernel_test

import (
	"testing"

	"caltrain/internal/kernel"
	"caltrain/internal/kernel/kerneltest"
)

// FuzzDistanceParity feeds raw bytes — reinterpreted as float32 vectors,
// so NaN payloads, infinities, and subnormals arise from the byte space —
// through every registered SqDist implementation and fails on any bitwise
// divergence from the portable reference. off shifts the slices to
// exercise vector-unaligned base pointers.
func FuzzDistanceParity(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add([]byte{0, 0, 128, 63}, []byte{0, 0, 128, 191}, byte(0))
	f.Fuzz(func(t *testing.T, qb, vb []byte, off byte) {
		q, v := kerneltest.Pair(qb, vb, off)
		kerneltest.CheckPair(t, q, v)
	})
}

// FuzzDistanceBatchParity drives the batched entry points (DistanceBatch,
// DistanceRows, DistanceGather) with fuzz-chosen shapes — dim, row count,
// and query count all straddle the 8-wide block and 256-row scan-block
// boundaries under the modulus — and fails unless every cell matches a
// pairwise reference call bit-for-bit.
func FuzzDistanceBatchParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, byte(1), byte(1), byte(1))
	f.Add([]byte{0x7f, 0xc0, 0, 0, 0xff, 0x80, 0, 0}, byte(2), byte(9), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, nq, n, dim byte) {
		d := 1 + int(dim)%17
		numQ := 1 + int(nq)%4
		numV := 1 + int(n)%300
		need := (numQ + numV) * d
		vals := kerneltest.FromBytes(data)
		if len(vals) == 0 {
			vals = []float32{0}
		}
		buf := make([]float32, need)
		for i := range buf {
			buf[i] = vals[i%len(vals)]
		}
		kerneltest.CheckBatch(t, buf[:numQ*d], buf[numQ*d:], d)
	})
}

// FuzzADCParity drives the ADC table scan with fuzz-chosen shapes — the
// subquantizer count m runs 1..32, so one or more 8-wide gather blocks
// with or without a scalar tail (the default M=16 is two blocks, m=12
// one block plus a tail of 4), and the row count straddles the 8-row
// boundary — over lookup tables populated from raw bytes, so NaN
// payloads, infinities, and subnormals land in table cells, and fails
// on any bitwise divergence between a registered implementation and the
// portable reference.
func FuzzADCParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, byte(1), byte(3))
	f.Add([]byte{0x7f, 0xc0, 0, 0, 0xff, 0x80, 0, 0}, byte(4), byte(9))
	f.Fuzz(func(t *testing.T, data []byte, mb, nb byte) {
		m := 1 + int(mb)%32
		rows := 1 + int(nb)%300
		vals := kerneltest.FromBytes(data)
		if len(vals) == 0 {
			vals = []float32{0}
		}
		table := make([]float32, m*kernel.ADCKs)
		for i := range table {
			table[i] = vals[i%len(vals)]
		}
		codes := make([]byte, rows*m)
		if len(data) > 0 {
			for i := range codes {
				codes[i] = data[i%len(data)]
			}
		}
		kerneltest.CheckADC(t, table, codes, m)
	})
}

// FuzzADCTableParity drives the ADC table build with fuzz-chosen
// shapes — m runs 1..16 and the subvector width dsub 0..12, so the
// AVX2 dim-4 table path and the per-subquantizer Rows fallback around
// the 8-wide block are both reached — over a query and codebook drawn
// from raw bytes, and fails unless every cell is the float32-rounded
// reference distance, bit for bit.
func FuzzADCTableParity(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 192}, byte(15), byte(4))
	f.Add([]byte{0x7f, 0xc0, 0, 0, 0xff, 0x80, 0, 0, 1, 0, 0, 0}, byte(1), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, mb, db byte) {
		m := 1 + int(mb)%16
		dsub := int(db) % 13
		vals := kerneltest.FromBytes(data)
		if len(vals) == 0 {
			vals = []float32{0}
		}
		// The query takes the values from the start, the codebook the
		// same values shifted by one, so rows and query differ.
		q := make([]float32, m*dsub)
		book := make([]float32, m*kernel.ADCKs*dsub)
		for i := range q {
			q[i] = vals[i%len(vals)]
		}
		for i := range book {
			book[i] = vals[(i+1)%len(vals)]
		}
		kerneltest.CheckADCTable(t, q, book, m)
	})
}
