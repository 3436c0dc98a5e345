package pointcloud

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// VoxelKey identifies a cubic cell of the voxel grid.
type VoxelKey struct {
	X, Y, Z int32
}

// KeyFor returns the voxel containing p for the given leaf size.
func KeyFor(p geom.Vec3, leaf float64) VoxelKey {
	return VoxelKey{
		X: int32(math.Floor(p.X / leaf)),
		Y: int32(math.Floor(p.Y / leaf)),
		Z: int32(math.Floor(p.Z / leaf)),
	}
}

// voxelAcc accumulates one occupied cell. Cells live in a flat slice in
// first-touch order (the order the scan stream discovers them), which
// makes the output ordering deterministic — unlike map iteration — and
// avoids one pointer-chased allocation per cell.
type voxelAcc struct {
	sum       geom.Vec3
	intensity float64
	n         int
	ring      int
}

// voxelScratch is the reusable working set of one downsample pass: the
// first-touch key index and the accumulator slots at the same indices.
type voxelScratch struct {
	bins voxelBins
	accs []voxelAcc
}

var voxelScratchPool = sync.Pool{
	New: func() any { return new(voxelScratch) },
}

func getVoxelScratch() *voxelScratch {
	s := voxelScratchPool.Get().(*voxelScratch)
	s.bins.reset()
	s.accs = s.accs[:0]
	return s
}

func putVoxelScratch(s *voxelScratch) { voxelScratchPool.Put(s) }

// accumulate bins pts into s in input order.
func (s *voxelScratch) accumulate(pts []Point, leaf float64) {
	for i := range pts {
		p := &pts[i]
		slot, added := s.bins.add(KeyFor(p.Pos, leaf))
		if added {
			s.accs = append(s.accs, voxelAcc{})
		}
		a := &s.accs[slot]
		a.sum = a.sum.Add(p.Pos)
		a.intensity += p.Intensity
		a.ring = p.Ring
		a.n++
	}
}

// merge folds o's cells into s in o's first-touch order, preserving the
// whole-stream first-touch ordering when shards are merged in index
// order.
func (s *voxelScratch) merge(o *voxelScratch) {
	for i := range o.accs {
		oa := &o.accs[i]
		slot, added := s.bins.add(o.bins.keys[i])
		if added {
			s.accs = append(s.accs, *oa)
			continue
		}
		a := &s.accs[slot]
		a.sum = a.sum.Add(oa.sum)
		a.intensity += oa.intensity
		a.ring = oa.ring
		a.n += oa.n
	}
}

// voxelShardSize fixes the parallel decomposition of the binning pass.
// It depends only on input size — never on the worker budget — so the
// merge computes the same floating-point sum tree under any host
// parallelism (see package parallel).
const voxelShardSize = 8192

// VoxelDownsample reduces a cloud to one point per occupied voxel — the
// centroid of the points that fell in it, as PCL's VoxelGrid does. This
// is the computational core of the voxel_grid_filter node. It returns
// the filtered cloud and the number of occupied voxels.
func VoxelDownsample(c *Cloud, leaf float64) (*Cloud, int) {
	return VoxelDownsampleInto(c, leaf, nil)
}

// VoxelDownsampleInto is VoxelDownsample with a reusable destination
// cloud (nil allocates). Output points appear in first-touch voxel
// order, so the result is a pure function of the input. Large clouds
// are binned in fixed-size shards executed concurrently and merged in
// shard order.
func VoxelDownsampleInto(c *Cloud, leaf float64, dst *Cloud) (*Cloud, int) {
	if leaf <= 0 {
		panic("pointcloud: non-positive voxel leaf size")
	}
	n := c.Len()
	shards := parallel.Shards(n, voxelShardSize)
	var merged *voxelScratch
	if shards <= 1 {
		merged = getVoxelScratch()
		merged.accumulate(c.Points, leaf)
	} else {
		parts := make([]*voxelScratch, shards)
		parallel.Run(shards, func(si int) {
			lo, hi := parallel.ShardRange(si, voxelShardSize, n)
			parts[si] = getVoxelScratch()
			parts[si].accumulate(c.Points[lo:hi], leaf)
		})
		merged = parts[0]
		for _, part := range parts[1:] {
			merged.merge(part)
			putVoxelScratch(part)
		}
	}
	cells := len(merged.accs)
	if dst == nil {
		dst = New(cells)
	}
	dst.Points = dst.Points[:0]
	for i := range merged.accs {
		a := &merged.accs[i]
		inv := 1 / float64(a.n)
		dst.Points = append(dst.Points, Point{
			Pos:       a.sum.Scale(inv),
			Intensity: a.intensity * inv,
			Ring:      a.ring,
		})
	}
	putVoxelScratch(merged)
	return dst, cells
}

// VoxelStats holds the Gaussian statistics of the points inside one
// voxel: mean, covariance and its inverse. This is the per-cell model of
// the Normal Distributions Transform used by ndt_matching and built by
// the hdmap package.
type VoxelStats struct {
	Mean   geom.Vec3
	Cov    [3][3]float64
	InvCov [3][3]float64
	N      int
	// OK is false when the voxel had too few points or a degenerate
	// covariance and must be skipped during matching.
	OK bool
}

// VoxelGrid is an immutable NDT statistics grid: the occupied voxel
// keys in ascending (X, Y, Z) order, their statistics at the same
// indices, and an open-addressed table of slots into them. Lookups
// hash the key, probe linearly and never allocate.
type VoxelGrid struct {
	keys  []VoxelKey
	stats []VoxelStats
	slots slotTable
}

// Len returns the number of occupied voxels.
func (g *VoxelGrid) Len() int { return len(g.keys) }

// Key returns the i-th voxel key in ascending key order.
func (g *VoxelGrid) Key(i int) VoxelKey { return g.keys[i] }

// At returns the statistics of the i-th voxel in key order.
func (g *VoxelGrid) At(i int) *VoxelStats { return &g.stats[i] }

// Get returns the statistics of voxel k, usable or not, or nil when no
// point fell in it.
func (g *VoxelGrid) Get(k VoxelKey) *VoxelStats {
	if i := g.slots.find(k, g.keys); i >= 0 {
		return &g.stats[i]
	}
	return nil
}

// slotTable is an open-addressed hash index over a key slice: each slot
// holds a key's index, or -1 when empty. The slot count is a power of
// two at least twice the key count, so linear probes stay short.
type slotTable struct {
	slots []int32
	shift uint
}

func newSlotTable(keys int) slotTable {
	bits := uint(3)
	for 1<<bits < 2*keys {
		bits++
	}
	t := slotTable{slots: make([]int32, 1<<bits), shift: 64 - bits}
	for i := range t.slots {
		t.slots[i] = -1
	}
	return t
}

// home returns k's first probe slot (Fibonacci hashing of the packed
// coordinates).
func (t *slotTable) home(k VoxelKey) int {
	h := uint64(uint32(k.X)) ^ uint64(uint32(k.Y))<<21 ^ uint64(uint32(k.Z))<<42
	return int((h * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the index of k in keys, or -1.
func (t *slotTable) find(k VoxelKey, keys []VoxelKey) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for s := t.home(k); ; s = (s + 1) & mask {
		i := t.slots[s]
		if i < 0 || keys[i] == k {
			return int(i)
		}
	}
}

// insert records that keys[i] lives at index i; the key must be absent.
func (t *slotTable) insert(k VoxelKey, i int32) {
	mask := len(t.slots) - 1
	s := t.home(k)
	for t.slots[s] >= 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = i
}

// voxelBins numbers voxel keys in first-touch order: keys holds each
// distinct key once, and slots maps a key to its index in keys. The slot
// table grows as keys arrive, so binning never goes through a Go map.
type voxelBins struct {
	keys  []VoxelKey
	slots slotTable
}

// add returns k's index, appending k when it is new (added reports
// which). The slot table is rebuilt larger before it would pass half
// full.
func (b *voxelBins) add(k VoxelKey) (i int, added bool) {
	if j := b.slots.find(k, b.keys); j >= 0 {
		return j, false
	}
	if 2*(len(b.keys)+1) > len(b.slots.slots) {
		b.slots = newSlotTable(2 * (len(b.keys) + 1))
		for j, old := range b.keys {
			b.slots.insert(old, int32(j))
		}
	}
	i = len(b.keys)
	b.slots.insert(k, int32(i))
	b.keys = append(b.keys, k)
	return i, true
}

// reset empties b, keeping its storage for reuse.
func (b *voxelBins) reset() {
	b.keys = b.keys[:0]
	for i := range b.slots.slots {
		b.slots.slots[i] = -1
	}
}

// BuildVoxelStats accumulates per-voxel Gaussian statistics for a cloud.
// Voxels with fewer than minPoints points are marked not OK. Each
// voxel sums its points in cloud order.
func BuildVoxelStats(c *Cloud, leaf float64, minPoints int) *VoxelGrid {
	if leaf <= 0 {
		panic("pointcloud: non-positive voxel leaf size")
	}
	type acc struct {
		sum geom.Vec3
		// Upper triangle of the second-moment matrix.
		xx, xy, xz, yy, yz, zz float64
		n                      int
	}
	// Bin in first-touch order, then reorder the cells by key.
	var bins voxelBins
	var accs []acc
	for _, p := range c.Points {
		slot, added := bins.add(KeyFor(p.Pos, leaf))
		if added {
			accs = append(accs, acc{})
		}
		a := &accs[slot]
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
	keys := bins.keys
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return keys[a].compare(keys[b]) })
	g := &VoxelGrid{
		keys:  make([]VoxelKey, len(keys)),
		stats: make([]VoxelStats, len(keys)),
		slots: newSlotTable(len(keys)),
	}
	for i, o := range order {
		g.keys[i] = keys[o]
		g.slots.insert(keys[o], int32(i))
		a := &accs[o]
		vs := &g.stats[i]
		vs.N = a.n
		inv := 1 / float64(a.n)
		m := a.sum.Scale(inv)
		vs.Mean = m
		if a.n >= minPoints {
			cov := [3][3]float64{
				{a.xx*inv - m.X*m.X, a.xy*inv - m.X*m.Y, a.xz*inv - m.X*m.Z},
				{a.xy*inv - m.X*m.Y, a.yy*inv - m.Y*m.Y, a.yz*inv - m.Y*m.Z},
				{a.xz*inv - m.X*m.Z, a.yz*inv - m.Y*m.Z, a.zz*inv - m.Z*m.Z},
			}
			// Regularize: NDT implementations inflate near-singular
			// covariances so planar surfaces (rank-2 covariance) stay
			// invertible while preserving the anisotropy that makes the
			// match informative. The floor scales with the total spread
			// of the cell, echoing PCL's eigenvalue clamping.
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
	}
	return g
}

// compare orders keys by X, then Y, then Z.
func (k VoxelKey) compare(o VoxelKey) int {
	if c := cmp.Compare(k.X, o.X); c != 0 {
		return c
	}
	if c := cmp.Compare(k.Y, o.Y); c != 0 {
		return c
	}
	return cmp.Compare(k.Z, o.Z)
}

// invert3 inverts a 3x3 matrix via the adjugate; ok is false when the
// determinant is numerically zero.
func invert3(m [3][3]float64) ([3][3]float64, bool) {
	a, b, c := m[0][0], m[0][1], m[0][2]
	d, e, f := m[1][0], m[1][1], m[1][2]
	g, h, i := m[2][0], m[2][1], m[2][2]
	det := a*(e*i-f*h) - b*(d*i-f*g) + c*(d*h-e*g)
	if math.Abs(det) < 1e-12 {
		return [3][3]float64{}, false
	}
	inv := 1 / det
	return [3][3]float64{
		{(e*i - f*h) * inv, (c*h - b*i) * inv, (b*f - c*e) * inv},
		{(f*g - d*i) * inv, (a*i - c*g) * inv, (c*d - a*f) * inv},
		{(d*h - e*g) * inv, (b*g - a*h) * inv, (a*e - b*d) * inv},
	}, true
}

// MahalanobisSq returns (p-mean)' InvCov (p-mean) for the voxel model.
func (vs *VoxelStats) MahalanobisSq(p geom.Vec3) float64 {
	d := p.Sub(vs.Mean)
	v := [3]float64{d.X, d.Y, d.Z}
	var t [3]float64
	for i := 0; i < 3; i++ {
		t[i] = vs.InvCov[i][0]*v[0] + vs.InvCov[i][1]*v[1] + vs.InvCov[i][2]*v[2]
	}
	return v[0]*t[0] + v[1]*t[1] + v[2]*t[2]
}
