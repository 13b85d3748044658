package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// AddInto computes dst += src elementwise. Shapes must match.
func AddInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: AddInto shape mismatch %v vs %v", dst.shape, src.shape))
	}
	for i := range dst.data {
		dst.data[i] += src.data[i]
	}
}

// SubInto computes dst -= src elementwise. Shapes must match.
func SubInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: SubInto shape mismatch %v vs %v", dst.shape, src.shape))
	}
	for i := range dst.data {
		dst.data[i] -= src.data[i]
	}
}

// MulInto computes dst *= src elementwise (Hadamard product).
func MulInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: MulInto shape mismatch %v vs %v", dst.shape, src.shape))
	}
	for i := range dst.data {
		dst.data[i] *= src.data[i]
	}
}

// Scale multiplies every element of t by a.
func (t *Tensor) Scale(a float32) {
	for i := range t.data {
		t.data[i] *= a
	}
}

// AXPY computes y += a*x, the BLAS-1 primitive used by SGD weight updates.
func AXPY(a float32, x, y *Tensor) {
	if !x.SameShape(y) {
		panic(fmt.Sprintf("tensor: AXPY shape mismatch %v vs %v", x.shape, y.shape))
	}
	for i := range x.data {
		y.data[i] += a * x.data[i]
	}
}

// Dot returns the inner product of two equally shaped tensors with float64
// accumulation.
func Dot(a, b *Tensor) float64 {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: Dot shape mismatch %v vs %v", a.shape, b.shape))
	}
	var s float64
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// MatMulMode selects the compute path for matrix multiplication.
//
// The paper's performance experiment (§VI-C) attributes in-enclave
// slowdown to the loss of fast-math compilation: "-ffast-math ... is
// ineffective for the enclaved code", while threads remain available
// inside SGX. We model that distinction with two genuinely different
// kernels rather than a synthetic multiplier. Both modes split rows
// across the same workers and run the same register-blocked tiles, which
// keep a small block of C in locals for the whole reduction; they differ
// only in the tile's reduction loop, which the accelerated path unrolls
// by 4 (standing in for -Ofast code generation) and the enclave path runs
// plainly. Every C element sums its products in the same order in both
// modes, so results are bit-identical — the property behind Experiment
// I's "same prediction accuracy". The enclave's second cost source, EPC
// paging, is modeled separately by internal/sgx.
type MatMulMode int

const (
	// Accelerated is the out-of-enclave path: parallel with an unrolled
	// kernel.
	Accelerated MatMulMode = iota
	// EnclaveScalar is the in-enclave path: parallel with a plain scalar
	// kernel (no fast-math-equivalent unrolling).
	EnclaveScalar
)

// MatMul computes C = A·B + C for row-major matrices A (m×k), B (k×n),
// C (m×n) using the requested mode. C accumulates, so callers wanting a
// plain product must zero it first.
func MatMul(mode MatMulMode, a, b, c *Tensor) {
	checkRank2("MatMul", a, b, c)
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || c.shape[0] != m || c.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v -> %v", a.shape, b.shape, c.shape))
	}
	parallelFor(m, gemmTileRows, m*k*n, func(lo, hi int) {
		gemmRows(mode, a.data, b.data, c.data, k, 1, k, n, lo, hi)
	})
}

// MatMulTransA computes C = Aᵀ·B + C for A (k×m), B (k×n), C (m×n).
// Backpropagation uses it to form weight gradients.
func MatMulTransA(mode MatMulMode, a, b, c *Tensor) {
	checkRank2("MatMulTransA", a, b, c)
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || c.shape[0] != m || c.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v -> %v", a.shape, b.shape, c.shape))
	}
	parallelFor(m, gemmTileRows, m*k*n, func(lo, hi int) {
		gemmRows(mode, a.data, b.data, c.data, 1, m, k, n, lo, hi)
	})
}

// MatMulTransB computes C = A·Bᵀ + C for A (m×k), B (n×k), C (m×n).
// Backpropagation uses it to push deltas through weight matrices.
func MatMulTransB(mode MatMulMode, a, b, c *Tensor) {
	checkRank2("MatMulTransB", a, b, c)
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || c.shape[0] != m || c.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v -> %v", a.shape, b.shape, c.shape))
	}
	parallelFor(m, dotTileRows, m*k*n, func(lo, hi int) {
		dotRows(mode, a.data, b.data, c.data, k, n, lo, hi)
	})
}

func checkRank2(op string, a, b, c *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || c.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 tensors, got %v x %v -> %v", op, a.shape, b.shape, c.shape))
	}
}

// Tile heights: rows of C one tile covers, and the granularity at which
// parallelFor splits the rows of a product.
const (
	gemmTileRows = 4 // gemmTile4x2
	dotTileRows  = 2 // dotTile2x4
)

// gemmPanel is the number of reduction steps gemmRows packs at a time: a
// 4 KiB panel that stays in L1 while a strip of C is swept.
const gemmPanel = 256

// gemmRows computes rows [lo,hi) of C += op(A)·B with C m×n and op(A)
// m×k, where op(A)[i,p] is a[i*rs+p*ps]: rs=k, ps=1 for A itself and
// rs=1, ps=m for Aᵀ. Each C element adds its products a·b in p order and
// skips zero A elements, as a row-at-a-time axpy loop would; the skip is
// what keeps −0 in C, and 0·±Inf or 0·NaN out of it, bit for bit.
//
// Each block of four rows of op(A) is packed, gemmPanel values of p at a
// time, into a stack panel in which the four values of one p are
// adjacent, so one tile kernel serves both layouts with unit-stride
// reads. C is stored between panels, which leaves every sum unchanged.
func gemmRows(mode MatMulMode, a, b, c []float32, rs, ps, k, n, lo, hi int) {
	unroll := mode == Accelerated
	var panel [gemmTileRows * gemmPanel]float32
	i := lo
	for ; i+gemmTileRows <= hi; i += gemmTileRows {
		for p0 := 0; p0 < k; p0 += gemmPanel {
			kc := min(gemmPanel, k-p0)
			ap := panel[:gemmTileRows*kc]
			for p := 0; p < kc; p++ {
				ao := i*rs + (p0+p)*ps
				ap[4*p], ap[4*p+1], ap[4*p+2], ap[4*p+3] = a[ao], a[ao+rs], a[ao+2*rs], a[ao+3*rs]
			}
			gemmTile4x2(unroll, ap, b[p0*n:], c[i*n:], n)
		}
		if n%2 == 1 {
			gemmEdge(a, b, c, rs, ps, k, n, i, i+gemmTileRows, n-1)
		}
	}
	gemmEdge(a, b, c, rs, ps, k, n, i, hi, 0)
}

// gemmEdge computes columns [j0,n) of rows [lo,hi) of C += op(A)·B, one
// row at a time, for the rows and columns that do not fill a tile.
func gemmEdge(a, b, c []float32, rs, ps, k, n, lo, hi, j0 int) {
	for i := lo; i < hi; i++ {
		crow := c[i*n+j0 : i*n+n]
		for p := 0; p < k; p++ {
			av := a[i*rs+p*ps]
			if av == 0 {
				continue
			}
			brow := b[p*n+j0 : p*n+n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// gemmTile4x2 sweeps the four rows of C that start at c[0] in 4×2
// tiles, up to the last even column. Each tile stays in locals across the
// reduction over panel, which holds the four op(A) values of each step
// side by side; b holds the matching rows of B. unroll selects the
// accelerated reduction loop, which takes four steps at a time.
func gemmTile4x2(unroll bool, panel, b, c []float32, n int) {
	for j := 0; j+2 <= n; j += 2 {
		ap := panel
		c00, c01 := c[j], c[j+1]
		c10, c11 := c[n+j], c[n+j+1]
		c20, c21 := c[2*n+j], c[2*n+j+1]
		c30, c31 := c[3*n+j], c[3*n+j+1]
		bo := j
		if unroll {
			for ; len(ap) >= 16; ap = ap[16:] {
				b0, b1 := b[bo], b[bo+1]
				c00, c01 = axpy2(ap[0], b0, b1, c00, c01)
				c10, c11 = axpy2(ap[1], b0, b1, c10, c11)
				c20, c21 = axpy2(ap[2], b0, b1, c20, c21)
				c30, c31 = axpy2(ap[3], b0, b1, c30, c31)
				b0, b1 = b[bo+n], b[bo+n+1]
				c00, c01 = axpy2(ap[4], b0, b1, c00, c01)
				c10, c11 = axpy2(ap[5], b0, b1, c10, c11)
				c20, c21 = axpy2(ap[6], b0, b1, c20, c21)
				c30, c31 = axpy2(ap[7], b0, b1, c30, c31)
				b0, b1 = b[bo+2*n], b[bo+2*n+1]
				c00, c01 = axpy2(ap[8], b0, b1, c00, c01)
				c10, c11 = axpy2(ap[9], b0, b1, c10, c11)
				c20, c21 = axpy2(ap[10], b0, b1, c20, c21)
				c30, c31 = axpy2(ap[11], b0, b1, c30, c31)
				b0, b1 = b[bo+3*n], b[bo+3*n+1]
				c00, c01 = axpy2(ap[12], b0, b1, c00, c01)
				c10, c11 = axpy2(ap[13], b0, b1, c10, c11)
				c20, c21 = axpy2(ap[14], b0, b1, c20, c21)
				c30, c31 = axpy2(ap[15], b0, b1, c30, c31)
				bo += 4 * n
			}
		}
		for ; len(ap) >= 4; ap = ap[4:] {
			b0, b1 := b[bo], b[bo+1]
			c00, c01 = axpy2(ap[0], b0, b1, c00, c01)
			c10, c11 = axpy2(ap[1], b0, b1, c10, c11)
			c20, c21 = axpy2(ap[2], b0, b1, c20, c21)
			c30, c31 = axpy2(ap[3], b0, b1, c30, c31)
			bo += n
		}
		c[j], c[j+1] = c00, c01
		c[n+j], c[n+j+1] = c10, c11
		c[2*n+j], c[2*n+j+1] = c20, c21
		c[3*n+j], c[3*n+j+1] = c30, c31
	}
}

// axpy2 returns (c0 + av·b0, c1 + av·b1), or (c0, c1) unchanged when av
// is zero.
func axpy2(av, b0, b1, c0, c1 float32) (float32, float32) {
	if av == 0 {
		return c0, c1
	}
	return c0 + av*b0, c1 + av*b1
}

// dotRows computes rows [lo,hi) of C += A·Bᵀ with A m×k, B n×k, C m×n.
// Each C element gets one dot product, summed from zero in p order and
// then added to C once.
func dotRows(mode MatMulMode, a, b, c []float32, k, n, lo, hi int) {
	unroll := mode == Accelerated
	i := lo
	for ; i+dotTileRows <= hi; i += dotTileRows {
		j := 0
		for ; j+4 <= n; j += 4 {
			dotTile2x4(unroll, a[i*k:], b[j*k:], c[i*n+j:], k, n)
		}
		dotEdge(a, b, c, k, n, i, i+dotTileRows, j)
	}
	dotEdge(a, b, c, k, n, i, hi, 0)
}

// dotEdge computes columns [j0,n) of rows [lo,hi) of C += A·Bᵀ, one dot
// product at a time, for the rows and columns that do not fill a tile.
func dotEdge(a, b, c []float32, k, n, lo, hi, j0 int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		for j := j0; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for p := range arow {
				s += arow[p] * brow[p]
			}
			c[i*n+j] += s
		}
	}
}

// dotTile2x4 runs the eight dot products of the 2×4 block of C that
// starts at c[0] as independent chains: rows 0 and 1 of a against rows 0
// to 3 of b. unroll selects the accelerated reduction loop, which takes p
// four at a time.
func dotTile2x4(unroll bool, a, b, c []float32, k, n int) {
	a0, a1 := a[:k], a[k:][:k]
	b0, b1, b2, b3 := b[:k], b[k:][:k], b[2*k:][:k], b[3*k:][:k]
	var s00, s01, s02, s03, s10, s11, s12, s13 float32
	p := 0
	if unroll {
		for ; p+4 <= k; p += 4 {
			// Check the bounds of all four steps up front.
			_, _, _, _, _, _ = a0[p+3], a1[p+3], b0[p+3], b1[p+3], b2[p+3], b3[p+3]
			x0, x1 := a0[p], a1[p]
			s00, s10 = dot2(x0, x1, b0[p], s00, s10)
			s01, s11 = dot2(x0, x1, b1[p], s01, s11)
			s02, s12 = dot2(x0, x1, b2[p], s02, s12)
			s03, s13 = dot2(x0, x1, b3[p], s03, s13)
			x0, x1 = a0[p+1], a1[p+1]
			s00, s10 = dot2(x0, x1, b0[p+1], s00, s10)
			s01, s11 = dot2(x0, x1, b1[p+1], s01, s11)
			s02, s12 = dot2(x0, x1, b2[p+1], s02, s12)
			s03, s13 = dot2(x0, x1, b3[p+1], s03, s13)
			x0, x1 = a0[p+2], a1[p+2]
			s00, s10 = dot2(x0, x1, b0[p+2], s00, s10)
			s01, s11 = dot2(x0, x1, b1[p+2], s01, s11)
			s02, s12 = dot2(x0, x1, b2[p+2], s02, s12)
			s03, s13 = dot2(x0, x1, b3[p+2], s03, s13)
			x0, x1 = a0[p+3], a1[p+3]
			s00, s10 = dot2(x0, x1, b0[p+3], s00, s10)
			s01, s11 = dot2(x0, x1, b1[p+3], s01, s11)
			s02, s12 = dot2(x0, x1, b2[p+3], s02, s12)
			s03, s13 = dot2(x0, x1, b3[p+3], s03, s13)
		}
	}
	for ; p < k; p++ {
		x0, x1 := a0[p], a1[p]
		s00, s10 = dot2(x0, x1, b0[p], s00, s10)
		s01, s11 = dot2(x0, x1, b1[p], s01, s11)
		s02, s12 = dot2(x0, x1, b2[p], s02, s12)
		s03, s13 = dot2(x0, x1, b3[p], s03, s13)
	}
	c[0] += s00
	c[1] += s01
	c[2] += s02
	c[3] += s03
	c[n] += s10
	c[n+1] += s11
	c[n+2] += s12
	c[n+3] += s13
}

// dot2 returns (s0 + x0·y, s1 + x1·y).
func dot2(x0, x1, y, s0, s1 float32) (float32, float32) {
	return s0 + x0*y, s1 + x1*y
}

// serialWork is the multiply-add count below which a product runs on the
// calling goroutine: starting workers would cost more than they save.
const serialWork = 1 << 15

// parallelFor splits [0,n) into contiguous chunks across GOMAXPROCS
// workers and invokes body(lo,hi) on each. Every chunk but the last is a
// multiple of step long, so row tiles never straddle two workers. Jobs of
// fewer than serialWork multiply-adds run on the calling goroutine.
func parallelFor(n, step, work int, body func(lo, hi int)) {
	steps := (n + step - 1) / step
	workers := min(runtime.GOMAXPROCS(0), steps)
	if workers <= 1 || work < serialWork {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (steps + workers - 1) / workers * step
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
