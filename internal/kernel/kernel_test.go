package kernel_test

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"testing/quick"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
	"caltrain/internal/kernel/kerneltest"
)

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// specialVec builds a dim-length vector whose entries cycle through the
// adversarial specials, offset so paired vectors misalign their NaNs.
func specialVec(dim, phase int) []float32 {
	sp := kerneltest.Specials()
	v := make([]float32, dim)
	for i := range v {
		v[i] = sp[(i+phase)%len(sp)]
	}
	return v
}

// TestImplParity sweeps every registered implementation against the
// reference over the adversarial dimension list, with random, special,
// and mixed inputs, plus unaligned slice offsets.
func TestImplParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 19))
	for _, dim := range kerneltest.Dims() {
		q, v := randVec(rng, dim), randVec(rng, dim)
		kerneltest.CheckPair(t, q, v)
		kerneltest.CheckPair(t, specialVec(dim, 0), specialVec(dim, 5))
		kerneltest.CheckPair(t, q, specialVec(dim, 3))
		kerneltest.CheckPair(t, q, q) // identical backing contents
		if dim >= 4 {
			// Unaligned bases: slice one element into a shared allocation.
			back := randVec(rng, 2*dim)
			kerneltest.CheckPair(t, back[1:dim], back[dim+1:2*dim])
		}
	}
}

// TestBatchParity cross-checks the batched entry points and every
// implementation's Rows slot against pairwise reference calls on shapes
// around the blocking boundaries: every sub-8 width (4 is the PQ
// subspace width, with its four-row AVX2 path and remainder rows),
// the 8-wide block and realistic embedding sizes.
func TestBatchParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 23))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 17, 64, 129} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 255, 256, 257, 600} {
			for _, nq := range []int{1, 2, 5} {
				kerneltest.CheckBatch(t, randVec(rng, nq*dim), randVec(rng, n*dim), dim)
			}
		}
		// Specials through the batched paths too: all-special rows, and
		// ordinary rows laced with specials every 7th float, so they
		// drift across lane positions from row to row.
		kerneltest.CheckBatch(t, specialVec(2*dim, 1), specialVec(9*dim, 4), dim)
		kerneltest.CheckBatch(t, randVec(rng, 3*dim), kerneltest.Lace(randVec(rng, 40*dim), 7), dim)
	}
}

// TestDistanceProperties mirrors fingerprint's TestL2DistanceProperties
// for the kernel, under every registered implementation: exact (bitwise)
// symmetry on finite inputs, identity of indiscernibles, non-negativity,
// and exact agreement with Fingerprint.L2Distance.
func TestDistanceProperties(t *testing.T) {
	for _, im := range kernel.Impls() {
		t.Run(im.Name, func(t *testing.T) {
			restore, err := kernel.SetActive(im.Name)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			f := func(seed uint64) bool {
				rng := rand.New(rand.NewPCG(seed, 21))
				dim := int(seed % 133)
				a, b := randVec(rng, dim), randVec(rng, dim)
				dab := kernel.SqDist(a, b)
				dba := kernel.SqDist(b, a)
				if math.Float64bits(dab) != math.Float64bits(dba) {
					return false // symmetry must be exact for finite inputs
				}
				if kernel.SqDist(a, a) != 0 || dab < 0 {
					return false
				}
				l2, err := fingerprint.Fingerprint(a).L2Distance(fingerprint.Fingerprint(b))
				return err == nil && l2 == math.Sqrt(dab)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSqDistLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SqDist on mismatched lengths did not panic")
		}
	}()
	kernel.SqDist(make([]float32, 3), make([]float32, 4))
}

func TestSetActive(t *testing.T) {
	orig := kernel.Active()
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatalf("SetActive(%q): %v", im.Name, err)
		}
		if got := kernel.Active(); got != im.Name {
			t.Fatalf("Active() = %q after SetActive(%q)", got, im.Name)
		}
		restore()
		if got := kernel.Active(); got != orig {
			t.Fatalf("restore left Active() = %q, want %q", got, orig)
		}
	}
	if _, err := kernel.SetActive("no-such-impl"); err == nil {
		t.Fatal("SetActive with unknown name did not error")
	}
}

func BenchmarkSqDist(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, dim := range []int{16, 64, 256} {
		q, v := randVec(rng, dim), randVec(rng, dim)
		for _, im := range kernel.Impls() {
			b.Run(im.Name+"/dim="+strconv.Itoa(dim), func(b *testing.B) {
				b.SetBytes(int64(8 * dim))
				var s float64
				for i := 0; i < b.N; i++ {
					s += im.SqDist(q, v)
				}
				sink = s
			})
		}
	}
}

// BenchmarkDistanceRows times the Rows slot of every implementation over
// a 256-row table — the PQ codebook shape at dim 4 (one subquantizer's
// centroids) and a Flat-scan block at dim 64.
func BenchmarkDistanceRows(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 17))
	const rows = 256
	for _, dim := range []int{4, 64} {
		q, vecs := randVec(rng, dim), randVec(rng, rows*dim)
		out := make([]float64, rows)
		for _, im := range kernel.Impls() {
			b.Run(im.Name+"/dim="+strconv.Itoa(dim), func(b *testing.B) {
				b.SetBytes(int64(4 * rows * dim))
				for i := 0; i < b.N; i++ {
					im.Rows(q, vecs, dim, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}

var sink float64
