package kernel_test

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"caltrain/internal/kernel"
	"caltrain/internal/kernel/kerneltest"
)

// adcTable builds an m×ADCKs table cycling through vals.
func adcTable(m int, vals []float32) []float32 {
	table := make([]float32, m*kernel.ADCKs)
	for i := range table {
		table[i] = vals[i%len(vals)]
	}
	return table
}

// TestADCParity sweeps every registered implementation against the
// reference across subquantizer counts straddling the 8-wide block,
// random codes, and tables salted with adversarial specials.
func TestADCParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	specials := kerneltest.Specials()
	for _, m := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 64} {
		table := make([]float32, m*kernel.ADCKs)
		for i := range table {
			if rng.IntN(16) == 0 {
				table[i] = specials[rng.IntN(len(specials))]
			} else {
				table[i] = float32(rng.NormFloat64())
			}
		}
		for _, rows := range []int{0, 1, 2, 7, 8, 9, 100} {
			codes := make([]byte, rows*m)
			for i := range codes {
				codes[i] = byte(rng.IntN(256))
			}
			kerneltest.CheckADC(t, table, codes, m)
		}
	}
}

// TestADCScanValues: hand-computable cases pin the scan down to exact
// values — a zero table scores every code 0, and a table whose cell
// (j, c) holds c sums the code bytes.
func TestADCScanValues(t *testing.T) {
	const m = 9 // one full block + scalar tail
	zero := make([]float32, m*kernel.ADCKs)
	codes := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 255, 254, 253, 252, 251, 250, 249, 248, 247}
	out := make([]float64, 2)
	kernel.ADCScan(zero, codes, m, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("zero table scored %v", out)
	}

	ident := make([]float32, m*kernel.ADCKs)
	for j := 0; j < m; j++ {
		for c := 0; c < kernel.ADCKs; c++ {
			ident[j*kernel.ADCKs+c] = float32(c)
		}
	}
	kernel.ADCScan(ident, codes, m, out)
	if out[0] != 36 || out[1] != 9*251 {
		t.Fatalf("identity table scored %v, want [36 %d]", out, 9*251)
	}
}

// TestADCScanNaNCanonical: any NaN reaching a row's sum comes out as
// the canonical math.NaN() pattern from every implementation.
func TestADCScanNaNCanonical(t *testing.T) {
	const m = 3
	table := adcTable(m, []float32{1})
	table[0*kernel.ADCKs+5] = math.Float32frombits(0x7fc00123) // NaN, nonzero payload
	codes := []byte{5, 0, 0}
	want := math.Float64bits(math.NaN())
	for _, im := range kernel.Impls() {
		out := make([]float64, 1)
		im.ADCScan(table, codes, m, out)
		if math.Float64bits(out[0]) != want {
			t.Fatalf("impl %q: NaN bits %#016x, want canonical %#016x", im.Name, math.Float64bits(out[0]), want)
		}
	}
}

// TestADCScanEmpty: zero rows and zero subquantizers are well-defined
// no-ops (m=0 scores every row 0 — the empty sum).
func TestADCScanEmpty(t *testing.T) {
	kernel.ADCScan(adcTable(4, []float32{1}), nil, 4, nil)
	out := []float64{-1, -1}
	kernel.ADCScan(nil, nil, 0, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("m=0 scored %v, want zeros", out)
	}
}

// TestADCScanArgChecks: malformed shapes panic — they are programming
// errors, not data errors.
func TestADCScanArgChecks(t *testing.T) {
	cases := []struct {
		name  string
		table []float32
		codes []byte
		m     int
		out   []float64
	}{
		{"negative m", nil, nil, -1, nil},
		{"short table", make([]float32, kernel.ADCKs-1), nil, 1, nil},
		{"ragged codes", make([]float32, 2*kernel.ADCKs), make([]byte, 3), 2, make([]float64, 1)},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			kernel.ADCScan(c.table, c.codes, c.m, c.out)
		}()
	}
}

// TestADCImplsComplete: every registered implementation carries an ADC
// scan and an ADC table build — the dispatch table must never hold a
// nil slot the IVFPQ hot path would hit.
func TestADCImplsComplete(t *testing.T) {
	for _, im := range kernel.Impls() {
		if im.ADCScan == nil {
			t.Errorf("impl %q has no ADCScan", im.Name)
		}
		if im.ADCTable == nil {
			t.Errorf("impl %q has no ADCTable", im.Name)
		}
	}
}

// TestADCTableParity holds every implementation's table build to the
// float32-rounded reference distance, cell by cell, across subvector
// widths around the dim-4 fast path and the 8-wide block, and counts
// of subquantizers from one to past the default 16, with codebooks
// and queries salted with specials.
func TestADCTableParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	specials := kerneltest.Specials()
	for _, dsub := range []int{0, 1, 2, 3, 4, 5, 8, 9, 16} {
		for _, m := range []int{1, 2, 3, 16, 17} {
			q := make([]float32, m*dsub)
			book := make([]float32, m*kernel.ADCKs*dsub)
			for _, v := range [][]float32{q, book} {
				for i := range v {
					if rng.IntN(32) == 0 {
						v[i] = specials[rng.IntN(len(specials))]
					} else {
						v[i] = float32(rng.NormFloat64())
					}
				}
			}
			kerneltest.CheckADCTable(t, q, book, m)
		}
	}
}

// TestADCTableValues pins cells to hand-computable distances: a
// codebook row equal to the query subvector scores 0, one a unit step
// away along each of the 4 dims scores 4, and float32 rounding of the
// float64 distance is exact on these small integers.
func TestADCTableValues(t *testing.T) {
	const m, dsub = 2, 4
	q := []float32{1, 2, 3, 4, -1, -2, -3, -4}
	book := make([]float32, m*kernel.ADCKs*dsub)
	for j := 0; j < m; j++ {
		for k := 0; k < kernel.ADCKs; k++ {
			row := book[(j*kernel.ADCKs+k)*dsub : (j*kernel.ADCKs+k+1)*dsub]
			for d := range row {
				row[d] = q[j*dsub+d] + float32(k%2)
			}
		}
	}
	tab := make([]float32, m*kernel.ADCKs)
	kernel.ADCTable(q, book, m, tab)
	for i, v := range tab {
		if want := float32(4 * (i % 2)); v != want {
			t.Fatalf("cell (%d, %d) = %v, want %v", i/kernel.ADCKs, i%kernel.ADCKs, v, want)
		}
	}
}

// TestADCTableArgChecks: shapes that do not describe an m×ADCKs
// codebook over an m-way split of the query panic.
func TestADCTableArgChecks(t *testing.T) {
	cases := []struct {
		name    string
		q, book []float32
		m       int
		tab     []float32
	}{
		{"zero m", nil, nil, 0, nil},
		{"ragged query", make([]float32, 5), make([]float32, 5*kernel.ADCKs), 2, make([]float32, 2*kernel.ADCKs)},
		{"short codebook", make([]float32, 8), make([]float32, 8*kernel.ADCKs-1), 2, make([]float32, 2*kernel.ADCKs)},
		{"short table", make([]float32, 8), make([]float32, 8*kernel.ADCKs), 2, make([]float32, kernel.ADCKs)},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			kernel.ADCTable(c.q, c.book, c.m, c.tab)
		}()
	}
}

// BenchmarkADCScan times every implementation's ADC scan across
// subquantizer widths at a realistic list length; bytes/op is rows×m —
// the code bytes actually touched — and ns/row the cost per scored code.
func BenchmarkADCScan(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	const rows = 4096
	for _, m := range []int{8, 16, 32} {
		table := make([]float32, m*kernel.ADCKs)
		for i := range table {
			table[i] = float32(rng.NormFloat64())
		}
		codes := make([]byte, rows*m)
		for i := range codes {
			codes[i] = byte(rng.IntN(256))
		}
		out := make([]float64, rows)
		for _, im := range kernel.Impls() {
			b.Run(im.Name+"/m="+strconv.Itoa(m), func(b *testing.B) {
				b.SetBytes(int64(rows * m))
				for i := 0; i < b.N; i++ {
					im.ADCScan(table, codes, m, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
