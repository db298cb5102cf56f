package collide

import (
	"math"

	"qserve/internal/geom"
)

// Trace is the result of sweeping a point or box through the world. The
// semantics mirror the engine's trace structure: Fraction is how far the
// motion got before hitting something (1 = full distance), End is the
// final position, Normal is the surface normal at the hit, and StartSolid
// flags a sweep that began inside solid geometry.
type Trace struct {
	Fraction   float64
	End        geom.Vec3
	Normal     geom.Vec3
	Brush      int // index of the brush hit, -1 if none
	Hit        bool
	StartSolid bool
}

// surfaceEpsilon keeps trace endpoints a hair in front of surfaces so
// successive traces never start embedded in the wall they just hit. The
// value matches Quake's DIST_EPSILON.
const surfaceEpsilon = 0.03125

// TraceSegment sweeps the point a to b and returns the first hit.
func (t *Tree) TraceSegment(a, b geom.Vec3, w *Work) Trace {
	return t.TraceBox(a, b, geom.Vec3{}, w)
}

// TraceBox sweeps a box with the given half extents from a to b (the box
// is centered on these points) and returns the first hit. The sweep is
// performed as a segment trace against brushes expanded by the half
// extents (the Minkowski-sum reduction).
//
// The tree is descended front to back along the segment (walkSegment);
// a Reference tree instead tests every brush of every leaf the sweep's
// bounding box overlaps. Both walks feed the same per-brush slab test
// and the same nearest rule, so they return the same Trace bit for bit
// and differ only in the Work they report.
func (t *Tree) TraceBox(a, b geom.Vec3, halfExt geom.Vec3, w *Work) Trace {
	best := noHit()
	if t.exhaustive {
		sweep := geom.Box(a, b).ExpandVec(halfExt).Expand(surfaceEpsilon)
		t.walkBox(0, sweep, w, func(bi int32) bool {
			best.test(t.brushes[bi], bi, a, b, halfExt)
			return true
		})
	} else {
		t.walkSegment(a, b, halfExt, w, &best)
	}
	return best.trace(a, b)
}

// nearest is the running answer of a trace walk. A walk may meet brushes
// in any order and any number of times (a brush straddling split planes
// sits in several leaves), so the answer is defined without reference to
// visit order: the smallest entry parameter wins and an exact tie — a
// sweep into the corner where two brushes meet — goes to the lowest
// brush index; a sweep that starts inside solid reports the lowest-index
// brush containing the start.
type nearest struct {
	t      float64 // entry parameter of the best hit: +Inf before any, 0 once start-solid
	brush  int32   // brush giving t, -1 if none
	normal geom.Vec3
	solid  int32 // lowest-index brush strictly containing the start, -1 if none
}

// noHit is the answer before any brush has been tested.
func noHit() nearest { return nearest{t: math.Inf(1), brush: -1, solid: -1} }

// trace reports n as the result of the sweep a→b.
func (n *nearest) trace(a, b geom.Vec3) Trace {
	if n.solid >= 0 {
		return Trace{End: a, Brush: int(n.solid), Hit: true, StartSolid: true}
	}
	if n.brush < 0 {
		return Trace{Fraction: 1, End: b, Brush: -1}
	}
	frac := pullBack(n.t, a, b)
	return Trace{Fraction: frac, End: a.Lerp(b, frac), Normal: n.normal, Brush: int(n.brush), Hit: true}
}

// test sweeps a→b against one brush and folds the outcome into n.
func (n *nearest) test(brush geom.AABB, bi int32, a, b, halfExt geom.Vec3) {
	hit, tt, normal, startSolid := traceExpandedBrush(brush.ExpandVec(halfExt), a, b)
	switch {
	case startSolid:
		if n.solid < 0 || bi < n.solid {
			n.solid = bi
		}
		n.t = 0 // nothing beyond the start matters any more
	case hit && (tt < n.t || tt == n.t && bi < n.brush):
		n.t, n.brush, n.normal = tt, bi, normal
	}
}

// span is a subtree still to visit and the part [t0,t1] of the segment
// that can meet its brushes.
type span struct {
	ni     int32
	t0, t1 float64
}

// walkSegment tests the brushes the segment a→b can reach, nearest
// first. Each node receives the parametric interval [t0,t1] of the
// segment that lies within halfExt+surfaceEpsilon of its region — the
// same padding the exhaustive walk gives the sweep's bounding box, so
// every node visited here is one it visits too. At a split plane the
// interval either lies on one side, or is clipped into a near and a far
// part: the near child is walked first and the far one waits on a stack,
// to be dropped unvisited if by then a hit lies strictly before its
// part begins. The two parts overlap by the padding on both sides of
// the plane; the surfaceEpsilon share of it is slack, orders of
// magnitude above the rounding of the clip parameters, so a brush whose
// entry point rounds onto the wrong side of a plane is still met.
func (t *Tree) walkSegment(a, b, halfExt geom.Vec3, w *Work, best *nearest) {
	d := b.Sub(a)
	// One far child per level can wait, and interior nodes stop above
	// maxDepth.
	var stack [maxDepth]span
	sp := 0
	nodes, tests := 0, 0
	cur := span{ni: 0, t0: 0, t1: 1}
	for {
		n := &t.nodes[cur.ni]
		nodes++
		if n.children[0] < 0 {
			for _, bi := range n.brushes {
				tests++
				best.test(t.brushes[bi], bi, a, b, halfExt)
			}
			// Next: the nearest waiting part a closer hit has not
			// already decided, cut short at that hit.
			for sp > 0 && best.t < stack[sp-1].t0 {
				sp--
			}
			if sp == 0 {
				break
			}
			sp--
			cur = stack[sp]
			cur.t1 = min(cur.t1, best.t)
			continue
		}

		axis, dist := n.plane.Axis, n.plane.Dist
		he := halfExt.Axis(axis)
		av, dv := a.Axis(axis), d.Axis(axis)
		lo, hi := av+cur.t0*dv, av+cur.t1*dv
		if lo > hi {
			lo, hi = hi, lo
		}
		// Same arithmetic and same touching rule as SideBox on the
		// padded sweep box.
		if lo-he-surfaceEpsilon >= dist {
			cur.ni = n.children[0]
			continue
		}
		if hi+he+surfaceEpsilon <= dist {
			cur.ni = n.children[1]
			continue
		}
		if dv == 0 {
			// Moving along the plane within the padding: both sides,
			// whole interval, either order.
			stack[sp] = span{n.children[1], cur.t0, cur.t1}
			sp++
			cur.ni = n.children[0]
			continue
		}
		// The padded box is within reach of the front side while its
		// centre is above dist-pad, of the back side while below
		// dist+pad.
		pad := he + surfaceEpsilon
		tFront, tBack := (dist-pad-av)/dv, (dist+pad-av)/dv
		near, nearEnd, far, farStart := n.children[1], tBack, n.children[0], tFront
		if dv < 0 {
			near, nearEnd, far, farStart = n.children[0], tFront, n.children[1], tBack
		}
		stack[sp] = span{far, max(cur.t0, farStart), cur.t1}
		sp++
		cur.ni, cur.t1 = near, min(cur.t1, nearEnd)
	}
	if w != nil {
		w.Nodes += nodes
		w.BrushTests += tests
	}
}

// pullBack turns a raw entry parameter into the reported Fraction: the
// endpoint is pulled back by surfaceEpsilon along the motion.
func pullBack(t float64, a, b geom.Vec3) float64 {
	if length := b.Sub(a).Len(); length > 0 {
		t -= surfaceEpsilon / length
		if t < 0 {
			t = 0
		}
	}
	return t
}

// TraceBoxAgainst sweeps a box with half extents he from a to b against a
// single obstacle box, with the same boundary semantics as tree traces.
// The game layer uses it to clip player motion against other entities
// collected from the areanode tree.
func TraceBoxAgainst(obstacle geom.AABB, a, b, he geom.Vec3) Trace {
	hit, tt, n, startSolid := traceExpandedBrush(obstacle.ExpandVec(he), a, b)
	if startSolid {
		return Trace{Fraction: 0, End: a, Brush: -1, Hit: true, StartSolid: true}
	}
	if !hit {
		return Trace{Fraction: 1, End: b, Brush: -1}
	}
	frac := pullBack(tt, a, b)
	return Trace{Fraction: frac, End: a.Lerp(b, frac), Normal: n, Brush: -1, Hit: true}
}

// traceExpandedBrush slab-tests the segment a→b against box eb.
//
// Boundary rules matter for movement quality:
//   - a strictly inside eb: start solid;
//   - a touching a face while moving away or parallel: no hit (lets
//     entities slide along and leave surfaces they rest on);
//   - a touching a face while moving in: hit at t=0 (walls block).
func traceExpandedBrush(eb geom.AABB, a, b geom.Vec3) (hit bool, t float64, normal geom.Vec3, startSolid bool) {
	if eb.ContainsStrict(a) {
		return true, 0, geom.Vec3{}, true
	}
	d := b.Sub(a)
	tEnter, tExit := math.Inf(-1), math.Inf(1)
	enterAxis, enterSign := -1, 0.0
	for i := 0; i < 3; i++ {
		av, dv := a.Axis(i), d.Axis(i)
		mn, mx := eb.Min.Axis(i), eb.Max.Axis(i)
		if dv == 0 {
			if av <= mn || av >= mx {
				// Outside or exactly on this slab with no motion along
				// it: can only touch, never penetrate.
				return false, 0, geom.Vec3{}, false
			}
			continue
		}
		inv := 1 / dv
		t0 := (mn - av) * inv
		t1 := (mx - av) * inv
		sign := -1.0
		if t0 > t1 {
			t0, t1 = t1, t0
			sign = 1.0
		}
		if t0 > tEnter {
			tEnter = t0
			enterAxis, enterSign = i, sign
		}
		if t1 < tExit {
			tExit = t1
		}
	}
	// Positive-measure overlap with the motion interval is required:
	// touching at a single parameter value is not a hit.
	if enterAxis < 0 || tEnter >= tExit || tEnter > 1 || tExit <= 0 || tEnter < 0 {
		return false, 0, geom.Vec3{}, false
	}
	normal = geom.Vec3{}.SetAxis(enterAxis, enterSign)
	return true, tEnter, normal, false
}
