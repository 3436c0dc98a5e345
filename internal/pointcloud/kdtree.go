package pointcloud

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// KDTree is a 3-dimensional k-d tree over cloud point indices. It backs
// radius queries for euclidean clustering. Construction is O(n log n)
// (one median selection per node); each node carries a copy of its
// point's coordinates, so queries never touch the positions slice the
// tree was built from.
type KDTree struct {
	nodes []kdNode
	idx   []int32 // build scratch, retained for Rebuild
	root  int32
	// TraversalSteps counts nodes visited across all queries since the
	// last ResetCounters call. The µarch trace generators use it to size
	// the pointer-chasing access stream that gives euclidean_cluster its
	// poor-locality cache signature (Table VII).
	TraversalSteps int
}

type kdNode struct {
	p           [3]float64 // the point's X, Y, Z
	idx         int32      // index into the build positions
	axis        int8       // 0=X 1=Y 2=Z
	left, right int32      // node indices, -1 for none
}

// kdParallelMin is the smallest subtree handed to its own goroutine
// during construction. Node slots are assigned by subrange — a pure
// function of the input — so the built tree is bit-identical whether
// subtrees build serially or concurrently.
const kdParallelMin = 4096

// kdStackDepth bounds the explicit stack of a query walk. Each subtree
// holds at most half of its parent's other points, so a tree over n
// points is at most floor(log2 n)+1 levels deep, and a depth-first walk
// keeps at most one pending far child per level: 32 entries for any
// int32-indexed tree.
const kdStackDepth = 64

// NewKDTree builds a balanced tree over the given positions.
func NewKDTree(pts []geom.Vec3) *KDTree {
	t := &KDTree{root: -1}
	t.Rebuild(pts)
	return t
}

// Rebuild re-indexes the tree over a new positions slice, reusing the
// node and scratch storage of previous builds — the zero-allocation
// path for per-frame reconstruction in the clustering node.
func (t *KDTree) Rebuild(pts []geom.Vec3) {
	t.root = -1
	n := len(pts)
	if n == 0 {
		t.nodes = t.nodes[:0]
		return
	}
	if cap(t.idx) < n {
		t.idx = make([]int32, n)
	} else {
		t.idx = t.idx[:n]
	}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	if cap(t.nodes) < n {
		t.nodes = make([]kdNode, n)
	} else {
		t.nodes = t.nodes[:n]
	}
	t.build(pts, t.idx, 0, 0)
	t.root = 0
}

// build lays out the subtree over idx (a subslice of the index scratch)
// in pre-order at node slots [base, base+len(idx)): the subtree root at
// base, the left subtree at [base+1, base+1+mid), the right subtree
// after it. The root is the element of rank mid under kdLess, a total
// order, so the tree depends only on the set of indices in each
// subrange, never on their order in it. Slot assignment depends only on
// subrange sizes, so parallel subtree builds write disjoint slots and
// produce the serial layout.
func (t *KDTree) build(pts []geom.Vec3, idx []int32, depth int, base int32) {
	axis := depth % 3
	mid := len(idx) / 2
	selectIdxByAxis(pts, idx, mid, axis)
	left, right := int32(-1), int32(-1)
	if mid > 0 {
		left = base + 1
	}
	if mid+1 < len(idx) {
		right = base + 1 + int32(mid)
	}
	p := pts[idx[mid]]
	t.nodes[base] = kdNode{p: [3]float64{p.X, p.Y, p.Z}, idx: idx[mid], axis: int8(axis), left: left, right: right}
	if left >= 0 && right >= 0 && len(idx) >= kdParallelMin && parallel.MaxWorkers() > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.build(pts, idx[:mid], depth+1, left)
		}()
		t.build(pts, idx[mid+1:], depth+1, right)
		wg.Wait()
		return
	}
	if left >= 0 {
		t.build(pts, idx[:mid], depth+1, left)
	}
	if right >= 0 {
		t.build(pts, idx[mid+1:], depth+1, right)
	}
}

// kdLess orders indices by (coordinate on axis, index). The index
// tiebreak makes the ordering total, so the built tree is a unique
// function of the input regardless of the selection algorithm.
func kdLess(pts []geom.Vec3, a, b int32, axis int) bool {
	ca, cb := coord(pts[a], axis), coord(pts[b], axis)
	if ca != cb {
		return ca < cb
	}
	return a < b
}

// selectIdxByAxis reorders idx so that idx[k] holds the element of rank
// k under kdLess, every element before it is smaller and every element
// after it is larger: quickselect with a median-of-three pivot and
// insertion sort below a threshold, without the allocations of
// sort.Slice.
func selectIdxByAxis(pts []geom.Vec3, idx []int32, k, axis int) {
	lo, hi := 0, len(idx)-1
	for hi-lo > 12 {
		// Median-of-three pivot, moved to hi.
		m := lo + (hi-lo)/2
		if kdLess(pts, idx[m], idx[lo], axis) {
			idx[m], idx[lo] = idx[lo], idx[m]
		}
		if kdLess(pts, idx[hi], idx[lo], axis) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if kdLess(pts, idx[hi], idx[m], axis) {
			idx[hi], idx[m] = idx[m], idx[hi]
		}
		idx[m], idx[hi] = idx[hi], idx[m]
		pivot := idx[hi]
		store := lo
		for i := lo; i < hi; i++ {
			if kdLess(pts, idx[i], pivot, axis) {
				idx[i], idx[store] = idx[store], idx[i]
				store++
			}
		}
		idx[store], idx[hi] = idx[hi], idx[store]
		switch {
		case k < store:
			hi = store - 1
		case k > store:
			lo = store + 1
		default:
			return
		}
	}
	// Insertion sort for small ranges.
	for i := lo + 1; i <= hi; i++ {
		v := idx[i]
		j := i - 1
		for j >= lo && kdLess(pts, v, idx[j], axis) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}

func coord(v geom.Vec3, axis int) float64 {
	switch axis {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// Radius appends to out the indices of all points within r of q and
// returns the extended slice. Passing a reused out slice avoids
// allocation in the clustering hot loop. The walk is depth first, near
// child before far child, and visits the far child only when the
// splitting plane lies within r.
func (t *KDTree) Radius(q geom.Vec3, r float64, out []int32) []int32 {
	if t.root < 0 {
		return out
	}
	r2 := r * r
	qp := [3]float64{q.X, q.Y, q.Z}
	// The walk descends into the near child at once and stacks the far
	// child, which pops once near's whole subtree is done.
	var stack [kdStackDepth]int32
	node, sp, steps := t.root, 0, 0
	for {
		n := &t.nodes[node]
		steps++
		dx, dy, dz := n.p[0]-qp[0], n.p[1]-qp[1], n.p[2]-qp[2]
		if dx*dx+dy*dy+dz*dz <= r2 {
			out = append(out, n.idx)
		}
		delta := qp[n.axis] - n.p[n.axis]
		near, far := n.right, n.left
		if delta < 0 {
			near, far = n.left, n.right
		}
		if far >= 0 && delta*delta <= r2 {
			stack[sp] = far
			sp++
		}
		if near >= 0 {
			node = near
			continue
		}
		if sp == 0 {
			break
		}
		sp--
		node = stack[sp]
	}
	t.TraversalSteps += steps
	return out
}

// Nearest returns the index of the closest point to q and its squared
// distance; (-1, 0) for an empty tree.
func (t *KDTree) Nearest(q geom.Vec3) (int32, float64) {
	if t.root < 0 {
		return -1, 0
	}
	// As in Radius, the walk descends into the near child and stacks
	// the far one. A far child is entered only if its splitting plane is
	// closer than the best distance found by the time it pops, so each
	// entry carries its squared plane distance.
	type pending struct {
		node  int32
		plane float64
	}
	qp := [3]float64{q.X, q.Y, q.Z}
	var stack [kdStackDepth]pending
	node, sp := t.root, 0
	best, bestD2 := int32(-1), 0.0
	for {
		n := &t.nodes[node]
		t.TraversalSteps++
		dx, dy, dz := n.p[0]-qp[0], n.p[1]-qp[1], n.p[2]-qp[2]
		d2 := dx*dx + dy*dy + dz*dz
		if best < 0 || d2 < bestD2 {
			best, bestD2 = n.idx, d2
		}
		delta := qp[n.axis] - n.p[n.axis]
		near, far := n.right, n.left
		if delta < 0 {
			near, far = n.left, n.right
		}
		if far >= 0 {
			stack[sp] = pending{node: far, plane: delta * delta}
			sp++
		}
		if near >= 0 {
			node = near
			continue
		}
		for sp > 0 && !(stack[sp-1].plane < bestD2) {
			sp--
		}
		if sp == 0 {
			return best, bestD2
		}
		sp--
		node = stack[sp].node
	}
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.nodes) }

// ResetCounters zeroes the traversal-step counter.
func (t *KDTree) ResetCounters() { t.TraversalSteps = 0 }
