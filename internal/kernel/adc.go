package kernel

import (
	"fmt"
	"math"
)

// ADC (asymmetric distance computation) table scan — the product-
// quantization list-scan primitive behind the IVFPQ backend. A query is
// turned into one lookup table of partial squared distances (M
// subquantizers × ADCKs centroids, float32), and each stored code — M
// uint8 centroid indices — is scored by summing its M table cells. The
// subtract-square work is paid once per (query, list) when the table is
// built; scanning a code costs M loads and M adds, independent of the
// vector dimensionality.
//
// Bit-stability contract. ADCScan follows the same rule as SqDist:
// every implementation MUST produce bitwise identical float64 results,
// and the summation order is part of the specification, mirroring the
// pair kernel:
//
//	nblk = m &^ 7
//	p[k] = Σ_i t[8i+k]  for 8i+k < nblk, i ascending   (8 partial sums)
//	s    = ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7))       (fixed tree)
//	s   += t[j]  for j = nblk..m-1, j ascending         (scalar tail)
//
// where t[j] = float64(table[j*ADCKs + codes[j]]), every addition
// IEEE-754 double rounded. A NaN result is canonicalized to the
// math.NaN() bit pattern, exactly as SqDist canonicalizes. The AVX2
// path realises this order with one VGATHERDPS per 8-subquantizer
// block: the block's 8 code bytes, widened to dwords and offset by
// lane k·ADCKs, index the 8 cells t[8i..8i+7], and the two VCVTPS2PD
// halves of the gathered register feed the accumulators holding
// p0..p3 and p4..p7.
//
// ADCTable builds the lookup table itself, one query at a time:
//
//	dsub = len(q)/m
//	tab[j*ADCKs+k] = float32(SqDist(q[j*dsub:(j+1)*dsub],
//	                         book row j*ADCKs+k))
//
// with book holding m×ADCKs rows of dsub floats (row-major by
// subquantizer). Each cell is the pair kernel's float64 result rounded
// once to float32, so it inherits the pair contract: a NaN cell is
// float32(math.NaN()), bits 0x7FC00000, on every implementation.
// At dsub 4, the default PQ subspace width, the AVX2 table kernel runs
// the four-rows-per-iteration Rows path over all m subquantizers in
// one call and stores its VCVTPD2PS results straight into tab.

// ADCKs is the per-subquantizer codebook size. It is fixed at 256 so a
// code element is exactly one uint8 and table rows have a constant
// stride — both the storage format and the scan kernel bake it in.
const ADCKs = 256

// adcScanGeneric is the portable blocked reference: row r of codes
// (m bytes) scores out[r] per the specified summation order.
func adcScanGeneric(table []float32, codes []byte, m int, out []float64) {
	nblk := m &^ 7
	for r := range out {
		row := codes[r*m : (r+1)*m]
		var p [8]float64
		for j := 0; j < nblk; j += 8 {
			cc := row[j : j+8]
			for k := 0; k < 8; k++ {
				p[k] += float64(table[(j+k)*ADCKs+int(cc[k])])
			}
		}
		s := ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]))
		for j := nblk; j < m; j++ {
			s += float64(table[j*ADCKs+int(row[j])])
		}
		if s != s {
			s = math.NaN() // canonical payload, same as SqDist
		}
		out[r] = s
	}
}

// checkADCArgs validates one ADCScan call; hot paths size their
// arguments once per request, so violations are programming errors.
func checkADCArgs(name string, table []float32, codes []byte, m int, out []float64) {
	if m < 0 {
		panic(fmt.Sprintf("kernel: %s m must be non-negative, got %d", name, m))
	}
	if len(table) != m*ADCKs {
		panic(fmt.Sprintf("kernel: %s table has %d cells, want m×Ks = %d×%d", name, len(table), m, ADCKs))
	}
	if len(codes) != len(out)*m {
		panic(fmt.Sprintf("kernel: %s %d code bytes for %d rows of %d", name, len(codes), len(out), m))
	}
}

// ADCScan scores len(out) product-quantized codes against one query's
// ADC lookup table via the active implementation: out[r] is the sum of
// the m table cells row r of codes selects, per the package's specified
// summation order. table is m×ADCKs partial squared distances
// (row-major by subquantizer); codes is len(out) rows of m uint8
// centroid indices.
func ADCScan(table []float32, codes []byte, m int, out []float64) {
	checkADCArgs("ADCScan:", table, codes, m, out)
	active.Load().ADCScan(table, codes, m, out)
}

// ADCScanRef is the portable reference, exported under a fixed name so
// the differential harness compares hardware paths against it
// regardless of which implementation is active.
func ADCScanRef(table []float32, codes []byte, m int, out []float64) {
	checkADCArgs("ADCScanRef:", table, codes, m, out)
	adcScanGeneric(table, codes, m, out)
}

// adcTableRows is the portable ADCTable: one rows call per
// subquantizer into a stack buffer, each result rounded to float32.
// The generic slot passes the portable Rows kernel; hardware slots
// without a dedicated table path pass their own.
func adcTableRows(rows func(q, vecs []float32, dim int, out []float64), q, book []float32, m int, tab []float32) {
	dsub := len(q) / m
	var d [ADCKs]float64
	for j := 0; j < m; j++ {
		rows(q[j*dsub:(j+1)*dsub], book[j*ADCKs*dsub:(j+1)*ADCKs*dsub], dsub, d[:])
		t := tab[j*ADCKs : (j+1)*ADCKs]
		for k, v := range d {
			t[k] = float32(v)
		}
	}
}

func adcTableGeneric(q, book []float32, m int, tab []float32) {
	adcTableRows(distanceRowsGeneric, q, book, m, tab)
}

// ADCTable fills one query's ADC lookup table via the active
// implementation: tab[j*ADCKs+k] is float32 of the squared distance
// between q's j-th subvector (dsub = len(q)/m floats) and row
// j*ADCKs+k of book, the m×ADCKs×dsub codebook. Malformed shapes panic,
// as in ADCScan.
func ADCTable(q, book []float32, m int, tab []float32) {
	if m < 1 || len(q)%m != 0 {
		panic(fmt.Sprintf("kernel: ADCTable: query of %d dims does not split into m = %d subvectors", len(q), m))
	}
	if len(book) != ADCKs*len(q) || len(tab) != m*ADCKs {
		panic(fmt.Sprintf("kernel: ADCTable: %d codebook floats and %d table cells, want m×Ks×dsub = %d and m×Ks = %d",
			len(book), len(tab), ADCKs*len(q), m*ADCKs))
	}
	active.Load().ADCTable(q, book, m, tab)
}
