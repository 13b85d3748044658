package index

import (
	"math/rand/v2"

	"caltrain/internal/kernel"
)

// Product quantization: each dim-length residual splits into m
// contiguous dsub-length subvectors, and each subquantizer j gets its
// own k-means codebook of pqKs centroids trained on the j-th subvector
// of every training residual. A vector's code is then m uint8 centroid
// indices — m bytes instead of 4·dim — and a query scores codes through
// an ADC lookup table (kernel.ADCScan) instead of touching any float
// vector. Training residuals (vector minus its coarse centroid) rather
// than raw vectors keeps the quantization error proportional to the
// within-list spread, the standard IVFPQ construction.

// pqKs is the per-subquantizer codebook size, fixed by the kernel's ADC
// contract (one code element = one uint8).
const pqKs = kernel.ADCKs

// pqCodebook holds one label's trained subquantizer centroids.
type pqCodebook struct {
	m, dsub   int
	centroids []float32 // m × pqKs × dsub, row-major by subquantizer
}

// sub returns subquantizer j's centroid table (pqKs rows of dsub).
func (cb *pqCodebook) sub(j int) []float32 {
	return cb.centroids[j*pqKs*cb.dsub : (j+1)*pqKs*cb.dsub]
}

// zeroCodebook is the degenerate codebook for a class born from a
// single append: every centroid is the origin, so every residual
// encodes to code 0 and the ADC table cell is the residual's own
// squared subvector norm — the scan degrades to the exact
// query-to-centroid distance instead of returning garbage.
func zeroCodebook(m, dsub int) *pqCodebook {
	return &pqCodebook{m: m, dsub: dsub, centroids: make([]float32, m*pqKs*dsub)}
}

// trainPQ runs k-means per subquantizer over a sample of the n×dim
// residual matrix. Training is deterministic for a fixed rng state and
// input (the kernel's bit-stability contract makes the assignment step
// reproducible across hardware paths).
func trainPQ(res []float32, n, dim, m, iters, sampleCap int, rng *rand.Rand) *pqCodebook {
	dsub := dim / m
	cb := &pqCodebook{m: m, dsub: dsub, centroids: make([]float32, m*pqKs*dsub)}
	sampleN := min(n, sampleCap)
	perm := rng.Perm(n)[:sampleN]

	// Scratch shared across subquantizers: the sampled subvectors packed
	// contiguously, their identity position list, and per-iteration
	// assignment/update state.
	sub := make([]float32, sampleN*dsub)
	all := make([]int32, sampleN)
	for i := range all {
		all[i] = int32(i)
	}
	assign := make([]int32, sampleN)
	counts := make([]int, pqKs)
	sums := make([]float64, pqKs*dsub)

	for j := 0; j < m; j++ {
		for i, p := range perm {
			copy(sub[i*dsub:(i+1)*dsub], res[p*dim+j*dsub:p*dim+(j+1)*dsub])
		}
		cents := cb.sub(j)
		// Init from the shuffled sample; with fewer than pqKs samples the
		// duplicates are harmless (strict-< argmin always picks the first).
		for k := 0; k < pqKs; k++ {
			copy(cents[k*dsub:(k+1)*dsub], sub[(k%sampleN)*dsub:(k%sampleN+1)*dsub])
		}
		for it := 0; it < iters; it++ {
			assignNearest(sub, dsub, all, cents, pqKs, assign)
			for i := range sums {
				sums[i] = 0
			}
			for i := range counts {
				counts[i] = 0
			}
			for si, ci := range assign {
				counts[ci]++
				v := sub[si*dsub : (si+1)*dsub]
				s := sums[int(ci)*dsub : (int(ci)+1)*dsub]
				for d, vd := range v {
					s[d] += float64(vd)
				}
			}
			for ci := 0; ci < pqKs; ci++ {
				if counts[ci] == 0 {
					p := rng.IntN(sampleN)
					copy(cents[ci*dsub:(ci+1)*dsub], sub[p*dsub:(p+1)*dsub])
					continue
				}
				inv := 1 / float64(counts[ci])
				cen := cents[ci*dsub : (ci+1)*dsub]
				s := sums[ci*dsub : (ci+1)*dsub]
				for d := range cen {
					cen[d] = float32(s[d] * inv)
				}
			}
		}
	}
	return cb
}

// encode writes the m-byte code of one dim-length residual: per
// subquantizer, the index of the nearest centroid (strict-< argmin, so
// ties are deterministic). d2s is a ≥pqKs scratch.
func (cb *pqCodebook) encode(res []float32, code []byte, d2s []float64) {
	for j := 0; j < cb.m; j++ {
		r := res[j*cb.dsub : (j+1)*cb.dsub]
		code[j] = byte(nearestCentroid(r, cb.sub(j), cb.dsub, pqKs, d2s))
	}
}

// table fills one query's ADC lookup table for a dim-length residual:
// tab[j*pqKs+k] is the squared kernel distance between the query
// residual's j-th subvector and centroid k of subquantizer j, rounded
// to float32 — one kernel.ADCTable call for all m subquantizers.
func (cb *pqCodebook) table(res []float32, tab []float32) {
	kernel.ADCTable(res, cb.centroids, cb.m, tab)
}
