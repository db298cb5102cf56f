package geom

import (
	"fmt"
	"math"
)

// AABB is an axis-aligned bounding box, the universal spatial currency of
// the server: brush geometry, entity hulls, move bounding boxes, and
// areanode volumes are all AABBs.
//
// A box is well-formed when Min <= Max component-wise. The zero AABB is the
// degenerate point box at the origin.
type AABB struct {
	Min, Max Vec3
}

// Box constructs an AABB from two opposite corners, normalizing the
// ordering so the result is well-formed regardless of argument order.
func Box(a, b Vec3) AABB { return AABB{a.Min(b), a.Max(b)} }

// BoxAt constructs an AABB centered at pos with half extents he.
func BoxAt(pos, he Vec3) AABB { return AABB{pos.Sub(he), pos.Add(he)} }

// BoxHull constructs an entity-style AABB: origin plus relative mins/maxs,
// the Quake edict absmin/absmax idiom.
func BoxHull(origin, mins, maxs Vec3) AABB {
	return AABB{origin.Add(mins), origin.Add(maxs)}
}

// Center returns the centroid of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box dimensions along each axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// HalfExtents returns half the box dimensions along each axis.
func (b AABB) HalfExtents() Vec3 { return b.Size().Scale(0.5) }

// Volume returns the enclosed volume.
func (b AABB) Volume() float64 {
	s := b.Size()
	return s.X * s.Y * s.Z
}

// IsValid reports whether Min <= Max on every axis.
func (b AABB) IsValid() bool {
	return b.Min.X <= b.Max.X && b.Min.Y <= b.Max.Y && b.Min.Z <= b.Max.Z
}

// Contains reports whether point p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// ContainsStrict reports whether p lies strictly inside b (not on a face).
func (b AABB) ContainsStrict(p Vec3) bool {
	return p.X > b.Min.X && p.X < b.Max.X &&
		p.Y > b.Min.Y && p.Y < b.Max.Y &&
		p.Z > b.Min.Z && p.Z < b.Max.Z
}

// ContainsBox reports whether o lies entirely within b.
func (b AABB) ContainsBox(o AABB) bool {
	return b.Contains(o.Min) && b.Contains(o.Max)
}

// Intersects reports whether b and o overlap, touching faces included.
// This is the test the areanode traversal and the paper's
// "objects intersecting the motion's bounding box" step perform.
func (b AABB) Intersects(o AABB) bool {
	return b.Min.X <= o.Max.X && b.Max.X >= o.Min.X &&
		b.Min.Y <= o.Max.Y && b.Max.Y >= o.Min.Y &&
		b.Min.Z <= o.Max.Z && b.Max.Z >= o.Min.Z
}

// IntersectsStrict reports whether b and o overlap with positive volume
// (touching faces excluded).
func (b AABB) IntersectsStrict(o AABB) bool {
	return b.Min.X < o.Max.X && b.Max.X > o.Min.X &&
		b.Min.Y < o.Max.Y && b.Max.Y > o.Min.Y &&
		b.Min.Z < o.Max.Z && b.Max.Z > o.Min.Z
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	return AABB{b.Min.Min(o.Min), b.Max.Max(o.Max)}
}

// Intersection returns the overlap of b and o. The result is not valid
// (Min > Max somewhere) when the boxes are disjoint; callers should check
// IsValid when disjointness is possible.
func (b AABB) Intersection(o AABB) AABB {
	return AABB{b.Min.Max(o.Min), b.Max.Min(o.Max)}
}

// Expand returns b grown outward by r on every face. Negative r shrinks;
// the result may become invalid when shrinking past the center.
func (b AABB) Expand(r float64) AABB {
	d := Vec3{r, r, r}
	return AABB{b.Min.Sub(d), b.Max.Add(d)}
}

// ExpandVec returns b grown outward by he per axis. This implements the
// Minkowski expansion used to reduce swept-box traces to segment traces.
func (b AABB) ExpandVec(he Vec3) AABB {
	return AABB{b.Min.Sub(he), b.Max.Add(he)}
}

// Translate returns b shifted by d.
func (b AABB) Translate(d Vec3) AABB {
	return AABB{b.Min.Add(d), b.Max.Add(d)}
}

// ClampPoint returns the point inside b closest to p.
func (b AABB) ClampPoint(p Vec3) Vec3 {
	return p.Max(b.Min).Min(b.Max)
}

// DistSqToPoint returns the squared distance from p to the closest point
// of b (zero when p is inside).
func (b AABB) DistSqToPoint(p Vec3) float64 {
	return b.ClampPoint(p).DistSq(p)
}

// SweepBounds returns the bounding box of box b translated from its current
// position to position +delta: the union of start and end boxes. This is
// the "bounding box of the player's motion" from the paper's move
// execution (§2.3).
func (b AABB) SweepBounds(delta Vec3) AABB {
	return b.Union(b.Translate(delta))
}

// IntersectSegment intersects the segment from a to c with the box using
// the slab method. It reports whether the segment hits the box, the entry
// parameter t in [0,1], and the outward normal of the face crossed at
// entry. A segment starting inside the box reports a hit at t=0 with a
// zero normal.
func (b AABB) IntersectSegment(a, c Vec3) (hit bool, t float64, normal Vec3) {
	if b.Contains(a) {
		return true, 0, Vec3{}
	}
	d := c.Sub(a)
	tEnter, tExit := 0.0, 1.0
	enterAxis, enterSign := -1, 0.0
	for i := 0; i < 3; i++ {
		av, dv := a.Axis(i), d.Axis(i)
		mn, mx := b.Min.Axis(i), b.Max.Axis(i)
		if dv == 0 {
			if av < mn || av > mx {
				return false, 0, Vec3{}
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
		if tEnter > tExit {
			return false, 0, Vec3{}
		}
	}
	if enterAxis < 0 {
		// Degenerate: a is inside after all (numerical edge); treat as t=0.
		return true, 0, Vec3{}
	}
	normal = Vec3{}.SetAxis(enterAxis, enterSign)
	return true, tEnter, normal
}

// Corner returns corner i (0..7) of the box, with bit 0 selecting max X,
// bit 1 max Y, bit 2 max Z.
func (b AABB) Corner(i int) Vec3 {
	p := b.Min
	if i&1 != 0 {
		p.X = b.Max.X
	}
	if i&2 != 0 {
		p.Y = b.Max.Y
	}
	if i&4 != 0 {
		p.Z = b.Max.Z
	}
	return p
}

// LongestAxis returns the axis index (0, 1, or 2) along which b is largest.
func (b AABB) LongestAxis() int {
	s := b.Size()
	if s.X >= s.Y && s.X >= s.Z {
		return 0
	}
	if s.Y >= s.Z {
		return 1
	}
	return 2
}

// String implements fmt.Stringer.
func (b AABB) String() string { return fmt.Sprintf("[%v %v]", b.Min, b.Max) }

// Inf returns the box covering all of space; useful as an identity for
// Intersection or as a "lock everything" region.
func Inf() AABB {
	inf := math.Inf(1)
	return AABB{Vec3{-inf, -inf, -inf}, Vec3{inf, inf, inf}}
}

// Empty returns an inverted box that acts as the identity for Union.
func Empty() AABB {
	inf := math.Inf(1)
	return AABB{Vec3{inf, inf, inf}, Vec3{-inf, -inf, -inf}}
}
