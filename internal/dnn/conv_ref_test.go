package dnn

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// refConv2D is the per-output convolution loop: bias first, then every
// in-bounds (ic, ky, kx) term in that order. Conv2DInto must match it
// bit for bit.
func refConv2D(in *Tensor, weights, bias []float32, outC, k, stride, pad int) *Tensor {
	outH := (in.H+2*pad-k)/stride + 1
	outW := (in.W+2*pad-k)/stride + 1
	out := NewTensor(outC, outH, outW)
	for oc := 0; oc < outC; oc++ {
		wBase := oc * in.C * k * k
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := bias[oc]
				iy0 := oy*stride - pad
				ix0 := ox*stride - pad
				for ic := 0; ic < in.C; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= in.H {
							continue
						}
						rowIn := (ic*in.H + iy) * in.W
						rowW := wBase + (ic*k+ky)*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= in.W {
								continue
							}
							sum += in.Data[rowIn+ix] * weights[rowW+kx]
						}
					}
				}
				out.Data[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return out
}

// randFloats fills n values spread over several orders of magnitude, so
// a change in summation order shows up in the rounded result.
func randFloats(rng *mathx.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormScaled(0, 1) * math.Pow(10, rng.Range(-3, 3)))
	}
	return v
}

func TestConv2DMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(97)
	type shape struct{ c, h, w, outC, k, stride, pad int }
	shapes := []shape{
		{3, 48, 64, 8, 3, 1, 1}, // detector layer 1, fanned across channels
		{8, 24, 32, 8, 3, 1, 1}, // detector layer 2
		{8, 12, 16, 4, 1, 1, 0}, // detector class head
		{1, 1, 1, 1, 5, 1, 4},   // one input pixel, the rest padding
		{2, 1, 2, 3, 3, 3, 0},   // window overhangs the input: sizes truncate toward zero
	}
	for len(shapes) < 400 {
		k := []int{1, 3, 5}[rng.Intn(3)]
		s := shape{
			c: 1 + rng.Intn(4), h: 1 + rng.Intn(12), w: 1 + rng.Intn(12),
			outC: 1 + rng.Intn(5), k: k, stride: 1 + rng.Intn(3), pad: rng.Intn(k),
		}
		if (s.h+2*s.pad-k)/s.stride+1 < 1 || (s.w+2*s.pad-k)/s.stride+1 < 1 {
			continue
		}
		shapes = append(shapes, s)
	}
	for i, s := range shapes {
		in := &Tensor{C: s.c, H: s.h, W: s.w, Data: randFloats(rng, s.c*s.h*s.w)}
		weights := randFloats(rng, s.outC*s.c*s.k*s.k)
		bias := randFloats(rng, s.outC)
		want := refConv2D(in, weights, bias, s.outC, s.k, s.stride, s.pad)
		// A reused destination holding stale values must be fully
		// overwritten.
		dst := NewTensor(1, 1, len(want.Data)+3)
		for j := range dst.Data {
			dst.Data[j] = float32(math.NaN())
		}
		got := Conv2DInto(in, weights, bias, s.outC, s.k, s.stride, s.pad, dst)
		if got.C != want.C || got.H != want.H || got.W != want.W {
			t.Fatalf("shape %d %+v: output %dx%dx%d, want %dx%dx%d", i, s, got.C, got.H, got.W, want.C, want.H, want.W)
		}
		for j := range want.Data {
			if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
				t.Fatalf("shape %d %+v: element %d = %v, want %v", i, s, j, got.Data[j], want.Data[j])
			}
		}
	}
}

func TestConv2DIntoZeroAlloc(t *testing.T) {
	rng := mathx.NewRNG(5)
	in := &Tensor{C: 4, H: 12, W: 16, Data: randFloats(rng, 4*12*16)}
	weights := randFloats(rng, 4*4*3*3)
	bias := randFloats(rng, 4)
	// 4 output channels × 12×16 × 4 × 9 MACs stays under
	// convParallelMin, so this is the serial path.
	if 4*12*16*4*9 >= convParallelMin {
		t.Fatal("shape no longer exercises the serial path")
	}
	dst := Conv2DInto(in, weights, bias, 4, 3, 1, 1, nil)
	allocs := testing.AllocsPerRun(50, func() {
		dst = Conv2DInto(in, weights, bias, 4, 3, 1, 1, dst)
	})
	if allocs != 0 {
		t.Errorf("Conv2DInto allocates %.1f times per call", allocs)
	}
}

// BenchmarkDetectorInfer runs the functional detector on a camera-sized
// 3×96×128 frame — the vision_detection node's host work per image.
func BenchmarkDetectorInfer(b *testing.B) {
	d := NewDetector(ArchSSD512, 1)
	img := synthImage(128, 96, geom.NewRect(geom.V2(40, 30), geom.V2(80, 60)), [3]float32{0.95, 0.25, 0.2})
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(d.Infer(img))
	}
	if n == 0 {
		b.Fatal("no detections")
	}
}
