package tracking

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/msgs"
)

// sameBits reports whether the dense matrix holds exactly want.
func sameBits(m *mathx.Mat, want [][]float64) bool {
	for i, row := range want {
		for j, v := range row {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

// TestFixedAlgebraMatchesMat checks the fixed-size filter algebra is
// bit-identical to the dense mathx.Mat routines it mirrors, on seeded
// random inputs that include exact zeros (the products skip them).
func TestFixedAlgebraMatchesMat(t *testing.T) {
	rng := mathx.NewRNG(97)
	val := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.Range(-3, 3)
	}
	for trial := 0; trial < 500; trial++ {
		var g, k [stateDim][measDim]float64
		var s [measDim][measDim]float64
		var v [measDim]float64
		for i := range g {
			for j := range g[i] {
				g[i][j], k[i][j] = val(), val()
			}
		}
		for i := range s {
			v[i] = val()
			for j := range s[i] {
				s[i][j] = val()
			}
		}
		gm, km, sm := mathx.MatFromRows(g[0][:], g[1][:], g[2][:], g[3][:], g[4][:]),
			mathx.MatFromRows(k[0][:], k[1][:], k[2][:], k[3][:], k[4][:]), mathx.MatFromRows(s[0][:], s[1][:])
		gs := mulGain(&g, &s)
		if !sameBits(gm.Mul(sm), [][]float64{gs[0][:], gs[1][:], gs[2][:], gs[3][:], gs[4][:]}) {
			t.Fatalf("trial %d: mulGain differs from Mat.Mul", trial)
		}
		gk := gainOuter(&g, &k)
		if !sameBits(gm.Mul(km.T()), [][]float64{gk[0][:], gk[1][:], gk[2][:], gk[3][:], gk[4][:]}) {
			t.Fatalf("trial %d: gainOuter differs from Mat.Mul(T)", trial)
		}
		gv := gainTimes(&g, &v)
		if !sameBits(gm.Mul(mathx.MatFromRows([]float64{v[0]}, []float64{v[1]})), [][]float64{{gv[0]}, {gv[1]}, {gv[2]}, {gv[3]}, {gv[4]}}) {
			t.Fatalf("trial %d: gainTimes differs from Mat.Mul", trial)
		}
		inv, ok := inverse2(s)
		minv, err := sm.Inverse()
		if ok != (err == nil) || (ok && !sameBits(minv, [][]float64{inv[0][:], inv[1][:]})) {
			t.Fatalf("trial %d: inverse2 differs from Mat.Inverse", trial)
		}
		// A covariance-like SPD matrix (sometimes made indefinite).
		var p [stateDim][stateDim]float64
		for i := range p {
			for j := 0; j <= i; j++ {
				p[i][j] = rng.Range(-1, 1)
				p[j][i] = p[i][j]
			}
			p[i][i] = rng.Range(-0.5, 6)
		}
		pm := mathx.MatFromRows(p[0][:], p[1][:], p[2][:], p[3][:], p[4][:])
		l, ok := cholesky(&p)
		ml, err := pm.Cholesky()
		if ok != (err == nil) || (ok && !sameBits(ml, [][]float64{l[0][:], l[1][:], l[2][:], l[3][:], l[4][:]})) {
			t.Fatalf("trial %d: cholesky differs from Mat.Cholesky", trial)
		}
		symmetrize(&p)
		pm.Symmetrize()
		if !sameBits(pm, [][]float64{p[0][:], p[1][:], p[2][:], p[3][:], p[4][:]}) {
			t.Fatalf("trial %d: symmetrize differs from Mat.Symmetrize", trial)
		}
	}
}

// TestUKFCycleZeroAlloc guards the filter hot path: one predict,
// measurement prediction and PDA update touch no heap.
func TestUKFCycleZeroAlloc(t *testing.T) {
	u := NewUKF(ModelCTRV, geom.V2(3, 4))
	zs := [][measDim]float64{{3.2, 4.1}, {2.9, 3.8}}
	beta := []float64{0.6, 0.3, 0.1}
	allocs := testing.AllocsPerRun(100, func() {
		if err := u.Predict(0.1); err != nil {
			t.Fatal(err)
		}
		mp, err := u.PredictMeasurement(0.45)
		if err != nil {
			t.Fatal(err)
		}
		u.UpdatePDA(&mp, zs, beta)
	})
	if allocs != 0 {
		t.Errorf("UKF predict/measure/update cycle allocates %v times, want 0", allocs)
	}
}

// trackerFrame returns the detections of a ring of n objects circling
// at frame i.
func trackerFrame(n, i int) []msgs.DetectedObject {
	objs := make([]msgs.DetectedObject, n)
	for j := range objs {
		ang := 0.05*float64(i) + 2*math.Pi*float64(j)/float64(n)
		objs[j] = det(30*math.Cos(ang), 30*math.Sin(ang), msgs.LabelCar)
	}
	return objs
}

func BenchmarkTrackerStep(b *testing.B) {
	const objects, frames = 12, 64
	stream := make([][]msgs.DetectedObject, frames)
	for i := range stream {
		stream[i] = trackerFrame(objects, i)
	}
	tr := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		tr.Step(stream[i], time.Duration(i)*100*time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := 10 + i
		tr.Step(stream[f%frames], time.Duration(f)*100*time.Millisecond)
	}
}
