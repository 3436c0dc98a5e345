// Package dnn is the minimal CNN inference engine behind the vision
// detectors. It serves two roles that the paper's CUDA-based SSD/YOLO
// implementations play there:
//
//  1. Functional: a reduced-scale convolutional pipeline really runs
//     over the synthetic camera pixels and produces detections whose
//     quality depends on image content (hand-constructed color/edge
//     filters plus a saliency decoding head — no ground-truth leaks).
//  2. Analytic: each detector carries its *full-size* architecture
//     (VGG-SSD at 300/512, Darknet-53 YOLOv3 at 416) whose exact
//     per-layer FLOP and byte volumes drive the GPU timing and power
//     models, preserving the relative cost ratios the paper measures.
package dnn

import (
	"fmt"

	"repro/internal/parallel"
)

// Tensor is a dense CHW float32 tensor.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// NewTensor allocates a zero tensor.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("dnn: bad tensor dims %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// Reshape resizes t in place to (c, h, w), reusing its buffer when
// capacity allows. Contents are unspecified afterwards; every layer
// below overwrites its full output. Returns t.
func (t *Tensor) Reshape(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("dnn: bad tensor dims %dx%dx%d", c, h, w))
	}
	n := c * h * w
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	}
	t.Data = t.Data[:n]
	t.C, t.H, t.W = c, h, w
	return t
}

// ensureDst returns dst reshaped to (c, h, w), allocating when nil.
func ensureDst(dst *Tensor, c, h, w int) *Tensor {
	if dst == nil {
		return NewTensor(c, h, w)
	}
	return dst.Reshape(c, h, w)
}

// At returns element (c, y, x).
func (t *Tensor) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set assigns element (c, y, x).
func (t *Tensor) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// convParallelMin is the smallest per-layer MAC volume worth fanning
// output channels across goroutines. Channels are independent (disjoint
// output planes, read-only input), so concurrency cannot change a
// single output bit.
const convParallelMin = 1 << 17

// Conv2D applies a 3x3-style convolution with stride and zero padding.
// weights layout: [outC][inC][k][k]; bias length outC.
func Conv2D(in *Tensor, weights []float32, bias []float32, outC, k, stride, pad int) *Tensor {
	return Conv2DInto(in, weights, bias, outC, k, stride, pad, nil)
}

// Conv2DInto is Conv2D with a reusable destination tensor (nil
// allocates). dst must not alias in.
func Conv2DInto(in *Tensor, weights []float32, bias []float32, outC, k, stride, pad int, dst *Tensor) *Tensor {
	if len(weights) != outC*in.C*k*k {
		panic("dnn: conv weight size mismatch")
	}
	if len(bias) != outC {
		panic("dnn: conv bias size mismatch")
	}
	outH := (in.H+2*pad-k)/stride + 1
	outW := (in.W+2*pad-k)/stride + 1
	out := ensureDst(dst, outC, outH, outW)
	if outC > 1 && outC*outH*outW*in.C*k*k >= convParallelMin {
		parallel.Run(outC, func(oc int) { convPlane(in, weights, bias, k, stride, pad, out, oc) })
	} else {
		for oc := 0; oc < outC; oc++ {
			convPlane(in, weights, bias, k, stride, pad, out, oc)
		}
	}
	return out
}

// convPlane computes output channel oc one output row at a time: the
// row starts at the bias, then each (ic, ky, kx) term is added across
// the whole row, skipping the columns whose input lies in the padding.
// Every output still sums its terms in (ic, ky, kx) order with float32
// rounding at each step, exactly as a per-output loop would.
func convPlane(in *Tensor, weights, bias []float32, k, stride, pad int, out *Tensor, oc int) {
	outH, outW := out.H, out.W
	wBase := oc * in.C * k * k
	for oy := 0; oy < outH; oy++ {
		acc := out.Data[(oc*outH+oy)*outW : (oc*outH+oy+1)*outW]
		b := bias[oc]
		for ox := range acc {
			acc[ox] = b
		}
		iy0 := oy*stride - pad
		for ic := 0; ic < in.C; ic++ {
			for ky := 0; ky < k; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= in.H {
					continue
				}
				row := in.Data[(ic*in.H+iy)*in.W : (ic*in.H+iy+1)*in.W]
				rowW := wBase + (ic*k+ky)*k
				for kx, w := range weights[rowW : rowW+k] {
					lo, hi := convSpan(kx, pad, stride, in.W, outW)
					if lo >= hi {
						continue
					}
					ix := lo*stride - pad + kx
					if stride == 1 {
						src := row[ix : ix+hi-lo]
						dst := acc[lo:hi]
						dst = dst[:len(src)]
						for i, v := range src {
							dst[i] += v * w
						}
						continue
					}
					for ox := lo; ox < hi; ox++ {
						acc[ox] += row[ix] * w
						ix += stride
					}
				}
			}
		}
	}
}

// convSpan returns the output columns [lo, hi) whose input column
// ox*stride-pad+kx lies inside a row of width inW.
func convSpan(kx, pad, stride, inW, outW int) (lo, hi int) {
	if kx < pad {
		lo = (pad - kx + stride - 1) / stride
	}
	last := inW - 1 + pad - kx
	if last < 0 {
		return lo, lo
	}
	return lo, min(last/stride+1, outW)
}

// LeakyReLU applies max(x, alpha*x) in place and returns t.
func LeakyReLU(t *Tensor, alpha float32) *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = alpha * v
		}
	}
	return t
}

// MaxPool2x2 downsamples by 2 with a 2x2 window (odd trailing row/col
// dropped, as common frameworks do with floor mode).
func MaxPool2x2(in *Tensor) *Tensor {
	return MaxPool2x2Into(in, nil)
}

// MaxPool2x2Into is MaxPool2x2 with a reusable destination (nil
// allocates). dst must not alias in.
func MaxPool2x2Into(in *Tensor, dst *Tensor) *Tensor {
	outH, outW := in.H/2, in.W/2
	if outH < 1 || outW < 1 {
		panic("dnn: tensor too small to pool")
	}
	out := ensureDst(dst, in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		for y := 0; y < outH; y++ {
			for x := 0; x < outW; x++ {
				m := in.At(c, 2*y, 2*x)
				if v := in.At(c, 2*y, 2*x+1); v > m {
					m = v
				}
				if v := in.At(c, 2*y+1, 2*x); v > m {
					m = v
				}
				if v := in.At(c, 2*y+1, 2*x+1); v > m {
					m = v
				}
				out.Set(c, y, x, m)
			}
		}
	}
	return out
}

// ResizeBilinear resamples to (h, w).
func ResizeBilinear(in *Tensor, h, w int) *Tensor {
	return ResizeBilinearInto(in, h, w, nil)
}

// ResizeBilinearInto is ResizeBilinear with a reusable destination (nil
// allocates). dst must not alias in.
func ResizeBilinearInto(in *Tensor, h, w int, dst *Tensor) *Tensor {
	out := ensureDst(dst, in.C, h, w)
	if in.H == h && in.W == w {
		copy(out.Data, in.Data)
		return out
	}
	sy := float32(in.H) / float32(h)
	sx := float32(in.W) / float32(w)
	for c := 0; c < in.C; c++ {
		for y := 0; y < h; y++ {
			fy := (float32(y)+0.5)*sy - 0.5
			y0 := int(fy)
			if y0 < 0 {
				y0 = 0
			}
			y1 := y0 + 1
			if y1 >= in.H {
				y1 = in.H - 1
			}
			wy := fy - float32(y0)
			if wy < 0 {
				wy = 0
			}
			for x := 0; x < w; x++ {
				fx := (float32(x)+0.5)*sx - 0.5
				x0 := int(fx)
				if x0 < 0 {
					x0 = 0
				}
				x1 := x0 + 1
				if x1 >= in.W {
					x1 = in.W - 1
				}
				wx := fx - float32(x0)
				if wx < 0 {
					wx = 0
				}
				v := in.At(c, y0, x0)*(1-wy)*(1-wx) +
					in.At(c, y0, x1)*(1-wy)*wx +
					in.At(c, y1, x0)*wy*(1-wx) +
					in.At(c, y1, x1)*wy*wx
				out.Set(c, y, x, v)
			}
		}
	}
	return out
}
