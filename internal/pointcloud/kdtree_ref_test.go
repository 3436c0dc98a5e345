package pointcloud

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/parallel"
)

// refKDTree is the sort-per-level build with recursive radius and
// nearest walks: the reference the selection-built tree and its
// iterative walks must match node for node, neighbour for neighbour and
// step for step.
type refKDTree struct {
	pts   []geom.Vec3
	nodes []refKDNode
	steps int
}

type refKDNode struct {
	idx         int32
	axis        int8
	left, right int32
}

func newRefKDTree(pts []geom.Vec3) *refKDTree {
	t := &refKDTree{pts: pts, nodes: make([]refKDNode, len(pts))}
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	if len(idx) > 0 {
		t.build(idx, 0, 0)
	}
	return t
}

func (t *refKDTree) build(idx []int32, depth int, base int32) {
	axis := depth % 3
	refSortIdxByAxis(t.pts, idx, axis)
	mid := len(idx) / 2
	left, right := int32(-1), int32(-1)
	if mid > 0 {
		left = base + 1
	}
	if mid+1 < len(idx) {
		right = base + 1 + int32(mid)
	}
	t.nodes[base] = refKDNode{idx: idx[mid], axis: int8(axis), left: left, right: right}
	if left >= 0 {
		t.build(idx[:mid], depth+1, left)
	}
	if right >= 0 {
		t.build(idx[mid+1:], depth+1, right)
	}
}

// refSortIdxByAxis fully sorts idx by kdLess.
func refSortIdxByAxis(pts []geom.Vec3, idx []int32, axis int) {
	slices.SortFunc(idx, func(a, b int32) int {
		if kdLess(pts, a, b, axis) {
			return -1
		}
		return 1
	})
}

func (t *refKDTree) radius(node int32, q geom.Vec3, r2 float64, out []int32) []int32 {
	n := &t.nodes[node]
	t.steps++
	p := t.pts[n.idx]
	if p.DistSq(q) <= r2 {
		out = append(out, n.idx)
	}
	delta := coord(q, int(n.axis)) - coord(p, int(n.axis))
	var near, far int32
	if delta < 0 {
		near, far = n.left, n.right
	} else {
		near, far = n.right, n.left
	}
	if near >= 0 {
		out = t.radius(near, q, r2, out)
	}
	if far >= 0 && delta*delta <= r2 {
		out = t.radius(far, q, r2, out)
	}
	return out
}

func (t *refKDTree) nearest(node int32, q geom.Vec3, best *int32, bestD2 *float64) {
	n := &t.nodes[node]
	t.steps++
	p := t.pts[n.idx]
	if d2 := p.DistSq(q); *best < 0 || d2 < *bestD2 {
		*best, *bestD2 = n.idx, d2
	}
	delta := coord(q, int(n.axis)) - coord(p, int(n.axis))
	var near, far int32
	if delta < 0 {
		near, far = n.left, n.right
	} else {
		near, far = n.right, n.left
	}
	if near >= 0 {
		t.nearest(near, q, best, bestD2)
	}
	if far >= 0 && delta*delta < *bestD2 {
		t.nearest(far, q, best, bestD2)
	}
}

// refKDClouds returns named test clouds of size n: uniform, clustered
// blobs, heavy duplicates, all-identical and collinear points.
func refKDClouds(rng *mathx.RNG, n int) map[string][]geom.Vec3 {
	uniform := randomPoints(rng, n, 30)
	blobs := make([]geom.Vec3, n)
	for i := range blobs {
		c := float64(rng.Intn(6)) * 8
		blobs[i] = geom.V3(c+rng.NormScaled(0, 0.7), c/2+rng.NormScaled(0, 0.7), rng.NormScaled(0, 0.3))
	}
	dups := make([]geom.Vec3, n)
	for i := range dups {
		dups[i] = geom.V3(float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(2)))
	}
	same := make([]geom.Vec3, n)
	for i := range same {
		same[i] = geom.V3(1.5, -2, 0.25)
	}
	line := make([]geom.Vec3, n)
	for i := range line {
		s := rng.Range(-20, 20)
		line[i] = geom.V3(s, 2*s, 0.5)
	}
	return map[string][]geom.Vec3{"uniform": uniform, "blobs": blobs, "duplicates": dups, "identical": same, "collinear": line}
}

func TestKDTreeMatchesRecursiveReference(t *testing.T) {
	old := parallel.MaxWorkers()
	defer parallel.SetMaxWorkers(old)
	rng := mathx.NewRNG(71)
	for _, n := range []int{1, 2, 3, 13, 14, 257, kdParallelMin - 1, kdParallelMin, 3*kdParallelMin + 5} {
		clouds := refKDClouds(rng, n)
		for _, name := range []string{"uniform", "blobs", "duplicates", "identical", "collinear"} {
			pts := clouds[name]
			ref := newRefKDTree(pts)
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/n=%d/workers=%d", name, n, workers), func(t *testing.T) {
					parallel.SetMaxWorkers(workers)
					tree := NewKDTree(pts)
					if tree.Len() != len(ref.nodes) {
						t.Fatalf("len = %d, want %d", tree.Len(), len(ref.nodes))
					}
					for i, want := range ref.nodes {
						got := tree.nodes[i]
						if got.idx != want.idx || got.axis != want.axis || got.left != want.left || got.right != want.right {
							t.Fatalf("node %d = {%d %d %d %d}, want %+v", i, got.idx, got.axis, got.left, got.right, want)
						}
						if p := pts[got.idx]; got.p != [3]float64{p.X, p.Y, p.Z} {
							t.Fatalf("node %d coordinates %v, want %v", i, got.p, p)
						}
					}
					var got, want []int32
					for qi := 0; qi < 60; qi++ {
						q := pts[rng.Intn(len(pts))]
						if qi%2 == 1 {
							q = geom.V3(rng.Range(-30, 30), rng.Range(-30, 30), rng.Range(-3, 3))
						}
						r := []float64{0, 0.5, 1.5, 4, 50}[qi%5]
						tree.ResetCounters()
						ref.steps = 0
						got = tree.Radius(q, r, got[:0])
						want = ref.radius(0, q, r*r, want[:0])
						if tree.TraversalSteps != ref.steps {
							t.Fatalf("query %d: %d steps, want %d", qi, tree.TraversalSteps, ref.steps)
						}
						if len(got) != len(want) {
							t.Fatalf("query %d: %d neighbours, want %d", qi, len(got), len(want))
						}
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("query %d: neighbour %d = %d, want %d", qi, j, got[j], want[j])
							}
						}
						tree.ResetCounters()
						ref.steps = 0
						gotIdx, gotD2 := tree.Nearest(q)
						wantIdx, wantD2 := int32(-1), 0.0
						ref.nearest(0, q, &wantIdx, &wantD2)
						if gotIdx != wantIdx || gotD2 != wantD2 || tree.TraversalSteps != ref.steps {
							t.Fatalf("query %d: nearest (%d, %v) in %d steps, want (%d, %v) in %d", qi, gotIdx, gotD2, tree.TraversalSteps, wantIdx, wantD2, ref.steps)
						}
					}
				})
			}
		}
	}
}

func TestKDTreeRadiusZeroAlloc(t *testing.T) {
	rng := mathx.NewRNG(73)
	pts := randomPoints(rng, 2000, 10)
	tree := NewKDTree(pts)
	out := make([]int32, 0, len(pts))
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		out = tree.Radius(pts[i%len(pts)], 2, out[:0])
		i++
	})
	if allocs != 0 {
		t.Errorf("Radius allocates %.1f times per query", allocs)
	}
	if _, d2 := tree.Nearest(pts[3]); d2 != 0 {
		t.Errorf("nearest to an indexed point at distance² %v", d2)
	}
}
