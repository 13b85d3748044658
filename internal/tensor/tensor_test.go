package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	for i, v := range tt.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if got := tt.Shape(); got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Shape = %v", got)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 2, 1)
	if got := tt.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	// Row-major layout: offset of (2,1) in a 3x4 tensor is 2*4+1 = 9.
	if got := tt.Data()[9]; got != 7.5 {
		t.Fatalf("flat[9] = %v, want 7.5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	tt.At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Fatal("Reshape must share backing storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for element-count mismatch")
		}
	}()
	a.Reshape(4, 2)
}

func TestFillGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	tt := New(20000)
	tt.FillGaussian(rng, 1.0, 2.0)
	mean := tt.Mean()
	if math.Abs(mean-1.0) > 0.1 {
		t.Fatalf("sample mean %v too far from 1.0", mean)
	}
	var varsum float64
	for _, v := range tt.Data() {
		d := float64(v) - mean
		varsum += d * d
	}
	std := math.Sqrt(varsum / float64(tt.Len()))
	if math.Abs(std-2.0) > 0.15 {
		t.Fatalf("sample stddev %v too far from 2.0", std)
	}
}

func TestNormalize(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	n := a.Normalize()
	if math.Abs(n-5) > 1e-6 {
		t.Fatalf("original norm %v, want 5", n)
	}
	if math.Abs(a.L2Norm()-1) > 1e-6 {
		t.Fatalf("normalized norm %v, want 1", a.L2Norm())
	}
	z := New(3)
	if z.Normalize() != 0 {
		t.Fatal("zero tensor should report zero norm")
	}
}

func TestMaxAndTopK(t *testing.T) {
	a := FromSlice([]float32{0.1, 0.7, 0.05, 0.15}, 4)
	v, i := a.Max()
	if v != 0.7 || i != 1 {
		t.Fatalf("Max = (%v,%d), want (0.7,1)", v, i)
	}
	top := a.ArgTopK(2)
	if len(top) != 2 || top[0] != 1 || top[1] != 3 {
		t.Fatalf("ArgTopK(2) = %v, want [1 3]", top)
	}
	if got := a.ArgTopK(10); len(got) != 4 {
		t.Fatalf("ArgTopK clamping failed: %v", got)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{10, 20, 30}, 3)
	AddInto(a, b)
	if a.At(2) != 33 {
		t.Fatalf("AddInto: %v", a.Data())
	}
	SubInto(a, b)
	if a.At(2) != 3 {
		t.Fatalf("SubInto: %v", a.Data())
	}
	MulInto(a, b)
	if a.At(1) != 40 {
		t.Fatalf("MulInto: %v", a.Data())
	}
	a.Scale(0.5)
	if a.At(1) != 20 {
		t.Fatalf("Scale: %v", a.Data())
	}
}

func TestAXPYAndDot(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := FromSlice([]float32{3, 4}, 2)
	AXPY(2, x, y)
	if y.At(0) != 5 || y.At(1) != 8 {
		t.Fatalf("AXPY: %v", y.Data())
	}
	if d := Dot(x, x); d != 5 {
		t.Fatalf("Dot = %v, want 5", d)
	}
}

func TestL2Distance(t *testing.T) {
	a := FromSlice([]float32{0, 0}, 2)
	b := FromSlice([]float32{3, 4}, 2)
	if d := L2Distance(a, b); math.Abs(d-5) > 1e-9 {
		t.Fatalf("L2Distance = %v, want 5", d)
	}
}

func matMulNaive(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			c[i*n+j] = float32(s)
		}
	}
	return c
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {64, 33, 17}, {128, 128, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k)
		b := New(k, n)
		a.FillUniform(rng, -1, 1)
		b.FillUniform(rng, -1, 1)
		want := matMulNaive(a.Data(), b.Data(), m, k, n)
		for _, mode := range []MatMulMode{Accelerated, EnclaveScalar} {
			c := New(m, n)
			MatMul(mode, a, b, c)
			for i := range want {
				if diff := math.Abs(float64(c.Data()[i] - want[i])); diff > 1e-3 {
					t.Fatalf("mode %d dims %v: element %d differs by %v", mode, dims, i, diff)
				}
			}
		}
	}
}

func TestMatMulAccumulates(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := FromSlice([]float32{1, 1, 1, 1}, 2, 2)
	MatMul(Accelerated, a, b, c)
	if c.At(0, 0) != 6 || c.At(1, 1) != 9 {
		t.Fatalf("MatMul must accumulate into C: %v", c.Data())
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	k, m, n := 13, 7, 11
	a := New(k, m) // interpreted transposed
	b := New(k, n)
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)
	// Explicit transpose then naive multiply.
	at := make([]float32, m*k)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			at[j*k+i] = a.Data()[i*m+j]
		}
	}
	want := matMulNaive(at, b.Data(), m, k, n)
	for _, mode := range []MatMulMode{Accelerated, EnclaveScalar} {
		c := New(m, n)
		MatMulTransA(mode, a, b, c)
		for i := range want {
			if diff := math.Abs(float64(c.Data()[i] - want[i])); diff > 1e-3 {
				t.Fatalf("mode %d element %d differs by %v", mode, i, diff)
			}
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	m, k, n := 6, 9, 5
	a := New(m, k)
	b := New(n, k) // interpreted transposed
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)
	bt := make([]float32, k*n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			bt[j*n+i] = b.Data()[i*k+j]
		}
	}
	want := matMulNaive(a.Data(), bt, m, k, n)
	for _, mode := range []MatMulMode{Accelerated, EnclaveScalar} {
		c := New(m, n)
		MatMulTransB(mode, a, b, c)
		for i := range want {
			if diff := math.Abs(float64(c.Data()[i] - want[i])); diff > 1e-3 {
				t.Fatalf("mode %d element %d differs by %v", mode, i, diff)
			}
		}
	}
}

// TestMatMulModesAgree is the property at the heart of Experiment I: the
// enclave compute path must produce the same numbers as the accelerated
// path, so protection cannot change model accuracy.
func TestMatMulModesAgree(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		m := 1 + int(seed%7)
		k := 1 + int((seed>>8)%7)
		n := 1 + int((seed>>16)%7)
		a, b := New(m, k), New(k, n)
		a.FillUniform(rng, -2, 2)
		b.FillUniform(rng, -2, 2)
		c1, c2 := New(m, n), New(m, n)
		MatMul(Accelerated, a, b, c1)
		MatMul(EnclaveScalar, a, b, c2)
		for i := range c1.Data() {
			if !sameBits(c1.Data()[i], c2.Data()[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refMatMul, refMatMulTransA and refMatMulTransB are the plain per-row
// loops the tiled kernels must reproduce bit for bit: every C element
// takes its products in p order, MatMul and MatMulTransA skip zero A
// elements, and MatMulTransB sums each dot product from zero before
// adding it to C once.
func refMatMul(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

func refMatMulTransA(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

func refMatMulTransB(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			crow[j] += s
		}
	}
}

// sameBits reports whether x and y are the same float32, bit for bit.
// NaNs match as a class: when two NaNs meet in an add, which payload
// survives depends on the operand order the compiler picks, in the
// reference loops as much as in the kernels.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// gemmSpecials are the values that expose a changed accumulation order
// or a dropped zero skip: NaN, both infinities, both zeros, subnormals
// and magnitudes whose products overflow.
var gemmSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-40,
	math.MaxFloat32, -3e38,
}

// gemmFill fills v with uniform values in [-2,2), about a quarter of them
// zero and one in every specialEvery a gemmSpecials value (none when
// specialEvery is 0).
func gemmFill(rng *rand.Rand, v []float32, specialEvery int) {
	for i := range v {
		switch {
		case specialEvery > 0 && rng.IntN(specialEvery) == 0:
			v[i] = gemmSpecials[rng.IntN(len(gemmSpecials))]
		case rng.IntN(4) == 0:
			v[i] = 0
		default:
			v[i] = float32(rng.Float64()*4 - 2)
		}
	}
}

// checkGEMMParity runs all three products in both modes on A, B and C
// filled by fill and fails unless each matches its reference loop bit
// for bit.
func checkGEMMParity(t *testing.T, m, k, n int, fill func([]float32)) {
	t.Helper()
	ad, bd, c0 := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	fill(ad)
	fill(bd)
	fill(c0)
	forms := []struct {
		name string
		a, b *Tensor
		run  func(MatMulMode, *Tensor, *Tensor, *Tensor)
		ref  func(a, b, c []float32, m, k, n int)
	}{
		{"MatMul", FromSlice(ad, m, k), FromSlice(bd, k, n), MatMul, refMatMul},
		{"MatMulTransA", FromSlice(ad, k, m), FromSlice(bd, k, n), MatMulTransA, refMatMulTransA},
		{"MatMulTransB", FromSlice(ad, m, k), FromSlice(bd, n, k), MatMulTransB, refMatMulTransB},
	}
	for _, f := range forms {
		want := append([]float32(nil), c0...)
		f.ref(ad, bd, want, m, k, n)
		for _, mode := range []MatMulMode{Accelerated, EnclaveScalar} {
			c := FromSlice(append([]float32(nil), c0...), m, n)
			f.run(mode, f.a, f.b, c)
			for i, got := range c.Data() {
				if !sameBits(got, want[i]) {
					t.Fatalf("%s mode %d %dx%dx%d: C[%d,%d] = %v (%#08x), reference %v (%#08x)",
						f.name, mode, m, k, n, i/n, i%n, got, math.Float32bits(got), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestGEMMBitExact holds every product form in both modes to its plain
// reference loop, bit for bit, over every m and n in 1..33 (all tile
// remainders), a spread of reduction lengths, zeros in A and specials
// laced into A, B and C, plus shapes large enough to be split across
// workers.
func TestGEMMBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for m := 1; m <= 33; m++ {
		for n := 1; n <= 33; n++ {
			for _, k := range []int{1, 3, 4, 5, 8, 13, 33} {
				every := []int{0, 128, 16}[(m+n+k)%3]
				checkGEMMParity(t, m, k, n, func(v []float32) { gemmFill(rng, v, every) })
			}
		}
	}
	for _, s := range [][3]int{{16, 144, 784}, {10, 72, 49}, {37, 50, 41}, {6, 2, 1 << 13}, {9, 700, 11}} {
		checkGEMMParity(t, s[0], s[1], s[2], func(v []float32) { gemmFill(rng, v, 512) })
	}
}

func TestMatMulTransARequiresRank2(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MatMulTransA requires rank-2") {
			t.Fatalf("recovered %v, want a rank-2 panic", r)
		}
	}()
	MatMulTransA(Accelerated, New(3, 2, 2), New(3, 4), New(2, 4))
}

func TestMatMulTransBRequiresRank2(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MatMulTransB requires rank-2") {
			t.Fatalf("recovered %v, want a rank-2 panic", r)
		}
	}()
	MatMulTransB(EnclaveScalar, New(2, 3), New(4, 3, 1), New(2, 4))
}

func TestConvGeom(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 28, InW: 28, KSize: 3, Stride: 1, Pad: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutH() != 28 || g.OutW() != 28 {
		t.Fatalf("same-pad 3x3/1 should preserve 28x28, got %dx%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 128, InH: 28, InW: 28, KSize: 2, Stride: 2, Pad: 0}
	if g2.OutH() != 14 {
		t.Fatalf("2x2/2 should halve 28 to 14, got %d", g2.OutH())
	}
	bad := ConvGeom{InC: 1, InH: 2, InW: 2, KSize: 5, Stride: 1, Pad: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for kernel larger than input")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1: im2col is the identity layout.
	g := ConvGeom{InC: 2, InH: 3, InW: 3, KSize: 1, Stride: 1, Pad: 0}
	img := make([]float32, 18)
	for i := range img {
		img[i] = float32(i)
	}
	dst := make([]float32, g.ColRows()*g.ColCols())
	Im2Col(g, img, dst)
	for i := range img {
		if dst[i] != img[i] {
			t.Fatalf("1x1 im2col should be identity, dst[%d]=%v", i, dst[i])
		}
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1 channel 3x3 image, 2x2 kernel, stride 1, no padding -> 2x2 output.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KSize: 2, Stride: 1, Pad: 0}
	img := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	dst := make([]float32, g.ColRows()*g.ColCols())
	Im2Col(g, img, dst)
	// Rows are kernel positions (top-left, top-right, bottom-left,
	// bottom-right); columns are output pixels in row-major order.
	want := []float32{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v (full %v)", i, dst[i], want[i], dst)
		}
	}
}

func TestIm2ColPaddingReadsZero(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KSize: 3, Stride: 1, Pad: 1}
	img := []float32{1, 2, 3, 4}
	dst := make([]float32, g.ColRows()*g.ColCols())
	Im2Col(g, img, dst)
	// Kernel position (0,0) over output pixel (0,0) reads image (-1,-1) = 0.
	if dst[0] != 0 {
		t.Fatalf("padded corner should be 0, got %v", dst[0])
	}
	// Kernel center over output (0,0) reads image (0,0) = 1.
	center := (4*g.OutH() + 0) * g.OutW() // row c=4 (kernel center), h=0, w=0
	if dst[center] != 1 {
		t.Fatalf("kernel center should read 1, got %v", dst[center])
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)>, the defining
// property of an adjoint pair, which is exactly what correct
// backpropagation through the conv layer requires.
func TestCol2ImAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		g := ConvGeom{
			InC:    1 + int(seed%3),
			InH:    4 + int((seed>>4)%5),
			InW:    4 + int((seed>>8)%5),
			KSize:  1 + int((seed>>12)%3),
			Stride: 1 + int((seed>>16)%2),
			Pad:    int((seed >> 20) % 2),
		}
		if g.Validate() != nil {
			return true // skip invalid geometry draws
		}
		x := make([]float32, g.InC*g.InH*g.InW)
		y := make([]float32, g.ColRows()*g.ColCols())
		for i := range x {
			x[i] = float32(rng.Float64()*2 - 1)
		}
		for i := range y {
			y[i] = float32(rng.Float64()*2 - 1)
		}
		cx := make([]float32, len(y))
		Im2Col(g, x, cx)
		var lhs float64
		for i := range y {
			lhs += float64(cx[i]) * float64(y[i])
		}
		xa := make([]float32, len(x))
		Col2Im(g, y, xa)
		var rhs float64
		for i := range x {
			rhs += float64(x[i]) * float64(xa[i])
		}
		return math.Abs(lhs-rhs) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, step := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 5, 100, 1023} {
			hits := make([]int32, n)
			parallelFor(n, step, serialWork, func(lo, hi int) {
				if lo%step != 0 {
					t.Errorf("step %d n=%d: chunk starts at %d", step, n, lo)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("step %d n=%d index %d visited %d times", step, n, i, h)
				}
			}
		}
	}
}

// refIm2Col and refCol2Im are the per-element loops the run-copy kernels
// replace: every column index is bounds-tested on its own.
func refIm2Col(g ConvGeom, img, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	for c := 0; c < g.ColRows(); c++ {
		wOff, hOff, imC := c%g.KSize, (c/g.KSize)%g.KSize, c/g.KSize/g.KSize
		for h := 0; h < outH; h++ {
			imRow := hOff + h*g.Stride - g.Pad
			for w := 0; w < outW; w++ {
				imCol := wOff + w*g.Stride - g.Pad
				v := float32(0)
				if imRow >= 0 && imRow < g.InH && imCol >= 0 && imCol < g.InW {
					v = img[(imC*g.InH+imRow)*g.InW+imCol]
				}
				dst[(c*outH+h)*outW+w] = v
			}
		}
	}
}

func refCol2Im(g ConvGeom, col, img []float32) {
	outH, outW := g.OutH(), g.OutW()
	for c := 0; c < g.ColRows(); c++ {
		wOff, hOff, imC := c%g.KSize, (c/g.KSize)%g.KSize, c/g.KSize/g.KSize
		for h := 0; h < outH; h++ {
			imRow := hOff + h*g.Stride - g.Pad
			for w := 0; w < outW; w++ {
				imCol := wOff + w*g.Stride - g.Pad
				if imRow >= 0 && imRow < g.InH && imCol >= 0 && imCol < g.InW {
					img[(imC*g.InH+imRow)*g.InW+imCol] += col[(c*outH+h)*outW+w]
				}
			}
		}
	}
}

// TestIm2ColCol2ImMatchReference holds both layout kernels to the
// per-element reference, bit for bit, over strides 1–3, padding 0–2,
// kernel sizes 1–5 and images from smaller than the kernel up to 9×8.
// Col2Im accumulates into a non-zero image, so its summation order is
// checked too.
func TestIm2ColCol2ImMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	for ks := 1; ks <= 5; ks++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 2; pad++ {
				for _, hw := range [][2]int{{1, 1}, {2, 3}, {5, 5}, {7, 4}, {9, 8}} {
					g := ConvGeom{InC: 1 + (ks+hw[0])%3, InH: hw[0], InW: hw[1], KSize: ks, Stride: stride, Pad: pad}
					if g.Validate() != nil {
						continue
					}
					img := make([]float32, g.InC*g.InH*g.InW)
					col := make([]float32, g.ColRows()*g.ColCols())
					gemmFill(rng, img, 0)
					gemmFill(rng, col, 0)
					got, want := make([]float32, len(col)), make([]float32, len(col))
					for i := range got {
						got[i], want[i] = -1, -2 // every cell must be written
					}
					Im2Col(g, img, got)
					refIm2Col(g, img, want)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("Im2Col %+v: dst[%d] = %v, reference %v", g, i, got[i], want[i])
						}
					}
					gotImg := append([]float32(nil), img...)
					wantImg := append([]float32(nil), img...)
					Col2Im(g, col, gotImg)
					refCol2Im(g, col, wantImg)
					for i := range wantImg {
						if !sameBits(gotImg[i], wantImg[i]) {
							t.Fatalf("Col2Im %+v: img[%d] = %v, reference %v", g, i, gotImg[i], wantImg[i])
						}
					}
				}
			}
		}
	}
}

// benchConvGeom is the second convolution of Table I/8: 16 channels of
// 28×28 under a 3×3 kernel with same padding.
var benchConvGeom = ConvGeom{InC: 16, InH: 28, InW: 28, KSize: 3, Stride: 1, Pad: 1}

func BenchmarkIm2Col(b *testing.B) {
	g := benchConvGeom
	img := make([]float32, g.InC*g.InH*g.InW)
	gemmFill(rand.New(rand.NewPCG(45, 46)), img, 0)
	dst := make([]float32, g.ColRows()*g.ColCols())
	b.SetBytes(int64(4 * len(dst)))
	for b.Loop() {
		Im2Col(g, img, dst)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	g := benchConvGeom
	col := make([]float32, g.ColRows()*g.ColCols())
	gemmFill(rand.New(rand.NewPCG(47, 48)), col, 0)
	img := make([]float32, g.InC*g.InH*g.InW)
	b.SetBytes(int64(4 * len(col)))
	for b.Loop() {
		Col2Im(g, col, img)
	}
}
