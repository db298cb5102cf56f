// Package collide answers solid-geometry queries against a map's brush
// set: point contents, segment traces, and swept-box traces. It plays the
// role of the Quake engine's BSP hull clipping, which the paper's move
// execution uses to simulate player motion against the world.
//
// The structure is a kd-tree over the brush AABBs with axis-aligned
// median splits (the same flavour of binary space partition the original
// maps use, built over our box-shaped brushes). Brushes straddling a
// split plane are referenced by both children. Queries report work
// counters (nodes visited, brush tests) that the cost model uses to
// charge virtual time in the simulated-machine engine; that engine
// traces through a Reference view, whose exhaustive walk is the one the
// model's constants were fitted to.
package collide

import (
	"sort"

	"qserve/internal/geom"
)

// Tree is an immutable spatial index over a map's solid brushes. It is
// safe for concurrent use by multiple goroutines once built.
type Tree struct {
	brushes []geom.AABB
	nodes   []node
	bounds  geom.AABB

	exhaustive bool // a Reference view: TraceBox walks the sweep's bounding box
}

type node struct {
	plane    geom.AxisPlane
	children [2]int32 // front, back; -1 when leaf
	brushes  []int32  // leaf payload
}

const (
	leafTarget = 4  // split until a node holds at most this many brushes
	maxDepth   = 16 // hard cap against pathological duplication
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

// NewTree builds the index. The brush slice is copied; the caller may
// reuse it.
func NewTree(brushes []geom.AABB, bounds geom.AABB) *Tree {
	t := &Tree{
		brushes: append([]geom.AABB(nil), brushes...),
		bounds:  bounds,
	}
	all := make([]int32, len(brushes))
	for i := range all {
		all[i] = int32(i)
	}
	t.build(all, bounds, 0)
	return t
}

// Reference returns a view of t — the same immutable brushes and nodes —
// whose TraceBox tests every brush of every leaf the sweep's bounding
// box overlaps, instead of descending front to back along the segment.
// The Trace it returns is identical; the Work it reports is that of the
// exhaustive walk, which is what the cost model's CollideOp/BrushTest
// constants were fitted to. The simulated-machine engine installs it so
// virtual time keeps its calibration, and the tests use it as the
// oracle for the fast walk.
func (t *Tree) Reference() *Tree {
	r := *t
	r.exhaustive = true
	return &r
}

// build constructs the subtree for the given brush subset and returns its
// node index.
func (t *Tree) build(idx []int32, bounds geom.AABB, depth int) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{children: [2]int32{-1, -1}})

	if len(idx) <= leafTarget || depth >= maxDepth {
		t.nodes[self].brushes = idx
		return self
	}

	axis := bounds.LongestAxis()
	dist := medianCenter(t.brushes, idx, axis)
	pl := geom.AxisPlane{Axis: axis, Dist: dist}

	var front, back []int32
	for _, bi := range idx {
		switch pl.SideBox(t.brushes[bi]) {
		case geom.SideFront:
			front = append(front, bi)
		case geom.SideBack:
			back = append(back, bi)
		default:
			front = append(front, bi)
			back = append(back, bi)
		}
	}
	// Degenerate split: all brushes land on one side (including via
	// duplication). Fall back to a leaf to guarantee termination.
	if len(front) == len(idx) && len(back) == len(idx) ||
		len(front) == 0 || len(back) == 0 {
		t.nodes[self].brushes = idx
		return self
	}

	fb, bb := pl.SplitBox(bounds)
	t.nodes[self].plane = pl
	fi := t.build(front, fb, depth+1)
	bi := t.build(back, bb, depth+1)
	t.nodes[self].children = [2]int32{fi, bi}
	return self
}

// medianCenter returns the median brush-center coordinate along axis,
// the split position heuristic.
func medianCenter(brushes []geom.AABB, idx []int32, axis int) float64 {
	cs := make([]float64, len(idx))
	for i, bi := range idx {
		cs[i] = brushes[bi].Center().Axis(axis)
	}
	sort.Float64s(cs)
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
