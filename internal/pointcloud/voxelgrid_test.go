package pointcloud

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// gridTestCloud scatters points over a region straddling the origin, so
// keys take negative, zero and positive coordinates, with a dense core
// that makes most voxels usable.
func gridTestCloud(seed uint64, n int) *Cloud {
	rng := mathx.NewRNG(seed)
	c := New(n)
	for i := 0; i < n; i++ {
		spread := 40.0
		if i%2 == 0 {
			spread = 6
		}
		c.Append(Point{Pos: geom.V3(rng.Range(-spread, spread), rng.Range(-spread, spread), rng.Range(-3, 5))})
	}
	return c
}

// referenceVoxelStats is the Go-map formulation of BuildVoxelStats:
// per-key sums in cloud order, then the same moment formulas.
func referenceVoxelStats(c *Cloud, leaf float64, minPoints int) map[VoxelKey]VoxelStats {
	type acc struct {
		sum                    geom.Vec3
		xx, xy, xz, yy, yz, zz float64
		n                      int
	}
	cells := map[VoxelKey]*acc{}
	for _, p := range c.Points {
		k := KeyFor(p.Pos, leaf)
		a := cells[k]
		if a == nil {
			a = &acc{}
			cells[k] = a
		}
		v := p.Pos
		a.sum = a.sum.Add(v)
		a.xx += v.X * v.X
		a.xy += v.X * v.Y
		a.xz += v.X * v.Z
		a.yy += v.Y * v.Y
		a.yz += v.Y * v.Z
		a.zz += v.Z * v.Z
		a.n++
	}
	out := make(map[VoxelKey]VoxelStats, len(cells))
	for k, a := range cells {
		vs := VoxelStats{N: a.n}
		inv := 1 / float64(a.n)
		m := a.sum.Scale(inv)
		vs.Mean = m
		if a.n >= minPoints {
			cov := [3][3]float64{
				{a.xx*inv - m.X*m.X, a.xy*inv - m.X*m.Y, a.xz*inv - m.X*m.Z},
				{a.xy*inv - m.X*m.Y, a.yy*inv - m.Y*m.Y, a.yz*inv - m.Y*m.Z},
				{a.xz*inv - m.X*m.Z, a.yz*inv - m.Y*m.Z, a.zz*inv - m.Z*m.Z},
			}
			minVar := math.Max(1e-4, 0.004*(cov[0][0]+cov[1][1]+cov[2][2]))
			for i := 0; i < 3; i++ {
				cov[i][i] += minVar
			}
			vs.Cov = cov
			if ic, ok := invert3(cov); ok {
				vs.InvCov = ic
				vs.OK = true
			}
		}
		out[k] = vs
	}
	return out
}

func TestVoxelGridMatchesMapReference(t *testing.T) {
	c := gridTestCloud(17, 20000)
	g := BuildVoxelStats(c, 2, 4)
	ref := referenceVoxelStats(c, 2, 4)
	if g.Len() != len(ref) {
		t.Fatalf("grid holds %d voxels, reference %d", g.Len(), len(ref))
	}
	usable := 0
	for i := 0; i < g.Len(); i++ {
		k := g.Key(i)
		if i > 0 && g.Key(i-1).compare(k) >= 0 {
			t.Fatalf("keys not strictly ascending at %d: %v then %v", i, g.Key(i-1), k)
		}
		want, ok := ref[k]
		if !ok {
			t.Fatalf("grid key %v absent from reference", k)
		}
		// Bit-identical statistics: == on the struct compares every
		// float exactly.
		if *g.At(i) != want {
			t.Fatalf("voxel %v: grid %+v, reference %+v", k, *g.At(i), want)
		}
		if g.Get(k) != g.At(i) {
			t.Fatalf("Get(%v) does not return the stored voxel", k)
		}
		if want.OK {
			usable++
		}
	}
	if usable == 0 || usable == g.Len() {
		t.Fatalf("test cloud should mix usable and unusable voxels (%d of %d usable)", usable, g.Len())
	}
}

func TestVoxelGridAbsentKeys(t *testing.T) {
	c := gridTestCloud(19, 5000)
	g := BuildVoxelStats(c, 2, 4)
	ref := referenceVoxelStats(c, 2, 4)
	rng := mathx.NewRNG(23)
	absent := 0
	for i := 0; i < 20000; i++ {
		k := VoxelKey{X: int32(rng.Intn(80) - 40), Y: int32(rng.Intn(80) - 40), Z: int32(rng.Intn(20) - 10)}
		if i%5 == 0 {
			k.X += math.MaxInt32 / 2 // far outside the cloud
		}
		if _, ok := ref[k]; ok {
			continue
		}
		absent++
		if vs := g.Get(k); vs != nil {
			t.Fatalf("Get(%v) = %+v for an absent key", k, vs)
		}
	}
	if absent < 1000 {
		t.Fatalf("only %d absent keys probed", absent)
	}
	empty := BuildVoxelStats(New(0), 2, 4)
	if empty.Len() != 0 || empty.Get(VoxelKey{}) != nil {
		t.Error("empty cloud should give an empty grid")
	}
}

func TestVoxelGridGetZeroAlloc(t *testing.T) {
	g := BuildVoxelStats(gridTestCloud(29, 5000), 2, 4)
	k := g.Key(g.Len() / 2)
	miss := VoxelKey{X: 1 << 20}
	allocs := testing.AllocsPerRun(100, func() {
		if g.Get(k) == nil || g.Get(miss) != nil {
			t.Fatal("lookup mismatch")
		}
	})
	if allocs != 0 {
		t.Errorf("Get allocates %v times, want 0", allocs)
	}
}
