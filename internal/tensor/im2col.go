package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution over a CHW image.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KSize         int // square kernel side
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KSize)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KSize)/g.Stride + 1 }

// ColRows returns the number of rows of the im2col matrix
// (InC * KSize * KSize).
func (g ConvGeom) ColRows() int { return g.InC * g.KSize * g.KSize }

// ColCols returns the number of columns of the im2col matrix
// (OutH * OutW).
func (g ConvGeom) ColCols() int { return g.OutH() * g.OutW() }

// Validate reports whether the geometry is internally consistent.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	}
	if g.KSize <= 0 || g.Stride <= 0 || g.Pad < 0 {
		return fmt.Errorf("tensor: conv geometry has invalid kernel params %+v", g)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry produces empty output %+v", g)
	}
	return nil
}

// colRange returns the output columns [lo,hi) whose input column
// wOff + w*Stride - Pad falls inside the image, for the kernel column
// wOff. Columns before lo and from hi on read padding.
func (g ConvGeom) colRange(wOff int) (lo, hi int) {
	outW := g.OutW()
	if d := g.Pad - wOff; d > 0 {
		lo = min((d+g.Stride-1)/g.Stride, outW)
	}
	hi = lo
	if e := g.InW - 1 + g.Pad - wOff; e >= 0 {
		hi = max(min(e/g.Stride+1, outW), lo)
	}
	return lo, hi
}

// Im2Col unrolls a CHW image into the (ColRows × ColCols) matrix whose
// product with a (filters × ColRows) weight matrix yields the convolution
// output. dst must have length ColRows*ColCols. Padding reads as zero.
//
// This mirrors Darknet's im2col_cpu, which the paper's prototype (built on
// Darknet, §V) uses for its convolutional layers. Each output row is a
// zero prefix, one run of image pixels (a single copy at stride 1) and a
// zero suffix.
func Im2Col(g ConvGeom, img []float32, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d != %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(dst) != g.ColRows()*g.ColCols() {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d != %d", len(dst), g.ColRows()*g.ColCols()))
	}
	channelsCol := g.ColRows()
	for c := 0; c < channelsCol; c++ {
		wOff := c % g.KSize
		hOff := (c / g.KSize) % g.KSize
		imC := c / g.KSize / g.KSize
		lo, hi := g.colRange(wOff)
		for h := 0; h < outH; h++ {
			imRow := hOff + h*g.Stride - g.Pad
			row := dst[(c*outH+h)*outW : (c*outH+h+1)*outW]
			if imRow < 0 || imRow >= g.InH {
				clear(row)
				continue
			}
			clear(row[:lo])
			if lo < hi {
				src := img[(imC*g.InH+imRow)*g.InW+wOff+lo*g.Stride-g.Pad:]
				if g.Stride == 1 {
					copy(row[lo:hi], src)
				} else {
					for w := lo; w < hi; w++ {
						row[w] = src[(w-lo)*g.Stride]
					}
				}
			}
			clear(row[hi:])
		}
	}
}

// Col2Im scatters a column matrix back into a CHW image, accumulating
// overlapping contributions. It is the adjoint of Im2Col and is used to
// backpropagate deltas through convolutions. img must be zeroed by the
// caller if a plain transpose-scatter is wanted. Every image element
// receives its contributions in the same (row, column) order as a scan
// of the whole column matrix would give them.
func Col2Im(g ConvGeom, col []float32, img []float32) {
	outH, outW := g.OutH(), g.OutW()
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d != %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(col) != g.ColRows()*g.ColCols() {
		panic(fmt.Sprintf("tensor: Col2Im col length %d != %d", len(col), g.ColRows()*g.ColCols()))
	}
	channelsCol := g.ColRows()
	for c := 0; c < channelsCol; c++ {
		wOff := c % g.KSize
		hOff := (c / g.KSize) % g.KSize
		imC := c / g.KSize / g.KSize
		lo, hi := g.colRange(wOff)
		for h := 0; h < outH; h++ {
			imRow := hOff + h*g.Stride - g.Pad
			if imRow < 0 || imRow >= g.InH || lo == hi {
				continue
			}
			row := col[(c*outH+h)*outW : (c*outH+h+1)*outW]
			dst := img[(imC*g.InH+imRow)*g.InW+wOff+lo*g.Stride-g.Pad:]
			if g.Stride == 1 {
				dst = dst[:hi-lo]
				for w, v := range row[lo:hi] {
					dst[w] += v
				}
			} else {
				for w := lo; w < hi; w++ {
					dst[(w-lo)*g.Stride] += row[w]
				}
			}
		}
	}
}
