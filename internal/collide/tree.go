// Package collide answers solid-geometry queries against a map's brush
// set: point contents, segment traces, and swept-box traces. It plays the
// role of the Quake engine's BSP hull clipping, which the paper's move
// execution uses to simulate player motion against the world.
//
// The structure is a kd-tree over the brush AABBs with axis-aligned
// splits (the same flavour of binary space partition the original maps
// use, built over our box-shaped brushes), placed by a surface-area
// heuristic at brush faces so that open space ends up in empty leaves.
// Brushes straddling a split plane are referenced by both children.
// Queries report work counters (nodes visited, brush tests) that the
// cost model uses to charge virtual time in the simulated-machine
// engine; that engine traces through a Reference tree, built by median
// splits, whose exhaustive walk is the one the model's constants were
// fitted to.
package collide

import (
	"math"
	"slices"

	"qserve/internal/geom"
)

// Tree is an immutable spatial index over a map's solid brushes. It is
// safe for concurrent use by multiple goroutines once built.
type Tree struct {
	brushes []geom.AABB
	nodes   []node
	bounds  geom.AABB

	exhaustive bool // a Reference tree: TraceBox walks the sweep's bounding box
}

type node struct {
	plane    geom.AxisPlane
	children [2]int32 // front, back; -1 when leaf
	brushes  []int32  // leaf payload
}

const (
	leafTarget = 4  // the median build splits until a node holds at most this many brushes
	maxDepth   = 16 // hard cap against pathological duplication

	// The surface-area heuristic's prices (Wald and Havran, RT 2006): one
	// node visit, one brush test, and the discount on a split that leaves
	// one side empty, whose space a walk then crosses without a test.
	sahTraverse = 1.0
	sahTest     = 1.5
	sahEmpty    = 0.8
)

// Work accumulates query effort. The same counters feed both profiling
// and the discrete-event cost model.
type Work struct {
	Nodes      int // tree nodes visited
	BrushTests int // brush slab tests performed
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Nodes += o.Nodes
	w.BrushTests += o.BrushTests
}

// NewTree builds the index with the surface-area heuristic. The brush
// slice is copied; the caller may reuse it.
func NewTree(brushes []geom.AABB, bounds geom.AABB) *Tree {
	t := &Tree{
		brushes: append([]geom.AABB(nil), brushes...),
		bounds:  bounds,
	}
	s := sahScratch{
		lo: make([]float64, len(brushes)),
		hi: make([]float64, len(brushes)),
	}
	t.build(allBrushes(len(brushes)), bounds, 0, &s)
	return t
}

// Reference returns a tree over the same immutable brushes whose nodes
// are built by median splits, as every tree was before the surface-area
// heuristic, and whose TraceBox tests every brush of every leaf the
// sweep's bounding box overlaps instead of descending front to back
// along the segment. The Trace it returns is identical; the Work it
// reports is that of the exhaustive walk over the median nodes, which is
// what the cost model's CollideOp/BrushTest constants were fitted to.
// The simulated-machine engine installs it so virtual time keeps its
// calibration, and the tests use it as the oracle for the fast walk.
// Each call builds the median nodes afresh; the live engine never calls
// it.
func (t *Tree) Reference() *Tree {
	r := &Tree{brushes: t.brushes, bounds: t.bounds, exhaustive: true}
	r.buildMedian(allBrushes(len(t.brushes)), t.bounds, 0)
	return r
}

// allBrushes returns the indices 0..n-1, the root's brush set.
func allBrushes(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// build constructs the subtree for the given brush subset and returns its
// node index. A node splits where the surface-area heuristic prices the
// split below a leaf, so an empty leaf is what a walk meets in open
// space.
func (t *Tree) build(idx []int32, bounds geom.AABB, depth int, s *sahScratch) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{children: [2]int32{-1, -1}})
	if depth < maxDepth {
		if pl, ok := s.split(t.brushes, idx, bounds); ok {
			front, back := t.partition(idx, pl)
			fb, bb := pl.SplitBox(bounds)
			t.nodes[self].plane = pl
			fi := t.build(front, fb, depth+1, s)
			bi := t.build(back, bb, depth+1, s)
			t.nodes[self].children = [2]int32{fi, bi}
			return self
		}
	}
	t.nodes[self].brushes = idx
	return self
}

// sahScratch holds the brush extents along the axis being scored, reused
// at every node of one build.
type sahScratch struct {
	lo, hi []float64
}

// split returns the cheapest plane for a node over idx within bounds, or
// false when no split is priced below a leaf. The candidates are the
// brush faces strictly inside bounds on each axis. One sort per axis and
// one sweep over both sorted lists count, at each candidate d, the
// brushes behind it (lo < d) and in front of it (hi > d) — the sides
// SideBox sends them to.
func (s *sahScratch) split(brushes []geom.AABB, idx []int32, bounds geom.AABB) (geom.AxisPlane, bool) {
	n := len(idx)
	size := bounds.Size()
	area := halfArea(size)
	if n == 0 || !(area > 0) {
		return geom.AxisPlane{}, false
	}
	best := sahTest * float64(n) // the leaf
	var pl geom.AxisPlane
	found := false
	for axis := 0; axis < 3; axis++ {
		lo, hi := s.lo[:n], s.hi[:n]
		for i, bi := range idx {
			lo[i], hi[i] = brushes[bi].Min.Axis(axis), brushes[bi].Max.Axis(axis)
		}
		slices.Sort(lo)
		slices.Sort(hi)
		start, end := bounds.Min.Axis(axis), bounds.Max.Axis(axis)
		// Each child keeps the node's extents on the other two axes.
		u, v := size.Axis((axis+1)%3), size.Axis((axis+2)%3)
		uv, rim := float64(u*v), u+v
		i, j := 0, 0 // lo[:i] < d, hi[:j] <= d
		for i < n || j < n {
			d := math.Inf(1)
			if i < n {
				d = lo[i]
			}
			if j < n && hi[j] < d {
				d = hi[j]
			}
			if d >= end {
				break
			}
			for j < n && hi[j] <= d {
				j++
			}
			if d > start {
				back, front := float64(i), float64(n-j)
				// Every product is rounded on its own (the float64
				// conversions forbid fused multiply-adds), so the tree
				// is the same on every architecture.
				areaBack := uv + float64(rim*(d-start))
				areaFront := uv + float64(rim*(end-d))
				cost := sahTraverse + sahTest*(float64(areaBack*back)+float64(areaFront*front))/area
				if i == 0 || j == n {
					cost *= sahEmpty
				}
				if cost < best {
					best, pl, found = cost, geom.AxisPlane{Axis: axis, Dist: d}, true
				}
			}
			for i < n && lo[i] <= d {
				i++
			}
		}
	}
	return pl, found
}

// halfArea is half the surface area of a box of the given size.
func halfArea(size geom.Vec3) float64 {
	return float64(size.X*size.Y) + float64(size.Y*size.Z) + float64(size.Z*size.X)
}

// buildMedian constructs the Reference tree's subtree for the given
// brush subset and returns its node index: a split at the median brush
// centre on the node's longest axis, down to leafTarget brushes.
func (t *Tree) buildMedian(idx []int32, bounds geom.AABB, depth int) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{children: [2]int32{-1, -1}})

	if len(idx) <= leafTarget || depth >= maxDepth {
		t.nodes[self].brushes = idx
		return self
	}

	axis := bounds.LongestAxis()
	dist := medianCenter(t.brushes, idx, axis)
	pl := geom.AxisPlane{Axis: axis, Dist: dist}

	front, back := t.partition(idx, pl)
	// Degenerate split: all brushes land on one side (including via
	// duplication). Fall back to a leaf to guarantee termination.
	if len(front) == len(idx) && len(back) == len(idx) ||
		len(front) == 0 || len(back) == 0 {
		t.nodes[self].brushes = idx
		return self
	}

	fb, bb := pl.SplitBox(bounds)
	t.nodes[self].plane = pl
	fi := t.buildMedian(front, fb, depth+1)
	bi := t.buildMedian(back, bb, depth+1)
	t.nodes[self].children = [2]int32{fi, bi}
	return self
}

// partition splits idx by the side of pl each brush lies on, in index
// order; a brush straddling pl goes to both sides.
func (t *Tree) partition(idx []int32, pl geom.AxisPlane) (front, back []int32) {
	buf := make([]int32, 2*len(idx))
	front, back = buf[:0:len(idx)], buf[len(idx):len(idx)]
	for _, bi := range idx {
		side := pl.SideBox(t.brushes[bi])
		if side&geom.SideFront != 0 {
			front = append(front, bi)
		}
		if side&geom.SideBack != 0 {
			back = append(back, bi)
		}
	}
	return front, back
}

// medianCenter returns the median brush-center coordinate along axis,
// the split position heuristic.
func medianCenter(brushes []geom.AABB, idx []int32, axis int) float64 {
	cs := make([]float64, len(idx))
	for i, bi := range idx {
		cs[i] = brushes[bi].Center().Axis(axis)
	}
	slices.Sort(cs)
	return cs[len(cs)/2]
}

// Bounds returns the world volume the tree covers.
func (t *Tree) Bounds() geom.AABB { return t.bounds }

// NumBrushes returns the number of indexed brushes.
func (t *Tree) NumBrushes() int { return len(t.brushes) }

// NumNodes returns the number of tree nodes (diagnostics).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// PointSolid reports whether p is strictly inside any solid brush.
// Points exactly on a brush face are not solid, so entities resting on
// surfaces do not register as stuck.
func (t *Tree) PointSolid(p geom.Vec3, w *Work) bool {
	ni := int32(0)
	for {
		n := &t.nodes[ni]
		if w != nil {
			w.Nodes++
		}
		if n.children[0] < 0 {
			for _, bi := range n.brushes {
				if w != nil {
					w.BrushTests++
				}
				if t.brushes[bi].ContainsStrict(p) {
					return true
				}
			}
			return false
		}
		if n.plane.SidePoint(p) == geom.SideFront {
			ni = n.children[0]
		} else {
			ni = n.children[1]
		}
	}
}

// BoxSolid reports whether box strictly overlaps any solid brush, used
// for spawn-point and teleport-destination validation.
func (t *Tree) BoxSolid(box geom.AABB, w *Work) bool {
	found := false
	t.walkBox(0, box, w, func(bi int32) bool {
		if t.brushes[bi].IntersectsStrict(box) {
			found = true
			return false
		}
		return true
	})
	return found
}

// walkBox visits every brush whose node region intersects box, calling fn
// until it returns false. Brushes may be visited more than once when they
// straddle split planes; callers must tolerate duplicates.
func (t *Tree) walkBox(ni int32, box geom.AABB, w *Work, fn func(int32) bool) bool {
	n := &t.nodes[ni]
	if w != nil {
		w.Nodes++
	}
	if n.children[0] < 0 {
		for _, bi := range n.brushes {
			if w != nil {
				w.BrushTests++
			}
			if !fn(bi) {
				return false
			}
		}
		return true
	}
	side := n.plane.SideBox(box)
	if side&geom.SideFront != 0 {
		if !t.walkBox(n.children[0], box, w, fn) {
			return false
		}
	}
	if side&geom.SideBack != 0 {
		if !t.walkBox(n.children[1], box, w, fn) {
			return false
		}
	}
	return true
}
