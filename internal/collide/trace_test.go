package collide

import (
	"math"
	"math/rand"
	"testing"

	"qserve/internal/geom"
	"qserve/internal/worldmap"
)

func treeOf(m *worldmap.Map) *Tree {
	boxes := make([]geom.AABB, len(m.Brushes))
	for i, b := range m.Brushes {
		boxes[i] = b.Box
	}
	return NewTree(boxes, m.Bounds)
}

func testTree(t testing.TB) (*Tree, *worldmap.Map) {
	t.Helper()
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	return treeOf(m), m
}

func TestTreeBuild(t *testing.T) {
	tr, m := testTree(t)
	if tr.NumBrushes() != len(m.Brushes) {
		t.Errorf("NumBrushes = %d, want %d", tr.NumBrushes(), len(m.Brushes))
	}
	if tr.NumNodes() < 2 {
		t.Errorf("tree did not split: %d nodes", tr.NumNodes())
	}
	if tr.Bounds() != m.Bounds {
		t.Errorf("Bounds = %v", tr.Bounds())
	}
}

func TestPointSolid(t *testing.T) {
	tr, m := testTree(t)
	var w Work

	// Below the floor is solid.
	if !tr.PointSolid(geom.V(100, 100, -8), &w) {
		t.Error("point inside floor not solid")
	}
	// Room centers are open space.
	for _, r := range m.Rooms {
		if tr.PointSolid(r.Bounds.Center(), &w) {
			t.Errorf("room %d center reported solid", r.ID)
		}
	}
	// Exactly on the floor surface is not solid (resting rule).
	if tr.PointSolid(geom.V(100, 100, 0), &w) {
		t.Error("point on floor surface reported solid")
	}
	if w.Nodes == 0 || w.BrushTests == 0 {
		t.Error("work counters not accumulated")
	}
	// Nil work pointer must be accepted.
	_ = tr.PointSolid(geom.V(1, 1, 1), nil)
}

func TestBoxSolid(t *testing.T) {
	tr, m := testTree(t)
	room := m.Rooms[0].Bounds
	openBox := geom.BoxAt(room.Center(), geom.V(16, 16, 28))
	if tr.BoxSolid(openBox, nil) {
		t.Error("box in open room reported solid")
	}
	wallBox := geom.BoxAt(geom.V(100, 100, -8), geom.V(4, 4, 4))
	if !tr.BoxSolid(wallBox, nil) {
		t.Error("box in floor not reported solid")
	}
	// Touching the floor from above is not solid overlap.
	touching := geom.Box(geom.V(90, 90, 0), geom.V(110, 110, 20))
	if tr.BoxSolid(touching, nil) {
		t.Error("box resting on floor reported solid")
	}
}

func TestTraceSegmentHitsWalls(t *testing.T) {
	tr, m := testTree(t)
	c := m.Rooms[0].Bounds.Center()

	// Straight down into the floor.
	res := tr.TraceSegment(c, geom.V(c.X, c.Y, -100), nil)
	if !res.Hit {
		t.Fatal("downward trace missed the floor")
	}
	if res.Normal != geom.V(0, 0, 1) {
		t.Errorf("floor normal = %v", res.Normal)
	}
	if math.Abs(res.End.Z-0) > 2*surfaceEpsilon+1e-9 {
		t.Errorf("trace stopped at z=%v, want ~0", res.End.Z)
	}
	if res.Fraction <= 0 || res.Fraction >= 1 {
		t.Errorf("fraction = %v", res.Fraction)
	}

	// Within the open room: no hit.
	res = tr.TraceSegment(c, c.Add(geom.V(20, 20, 20)), nil)
	if res.Hit {
		t.Errorf("open-space trace hit brush %d", res.Brush)
	}
	if res.Fraction != 1 || res.End != c.Add(geom.V(20, 20, 20)) {
		t.Errorf("open-space trace end = %v fraction = %v", res.End, res.Fraction)
	}

	// Far beyond the outer wall: must stop inside the world.
	res = tr.TraceSegment(c, c.Add(geom.V(1e6, 0, 0)), nil)
	if !res.Hit {
		t.Fatal("horizontal trace escaped the world")
	}
	if !m.Bounds.Contains(res.End) {
		t.Errorf("trace end %v outside world", res.End)
	}
}

func TestTraceConsecutiveNotStartSolid(t *testing.T) {
	tr, m := testTree(t)
	c := m.Rooms[0].Bounds.Center()
	res := tr.TraceSegment(c, geom.V(c.X, c.Y, -100), nil)
	if !res.Hit || res.StartSolid {
		t.Fatalf("setup trace: %+v", res)
	}
	// Trace again from the stop point: the epsilon pullback must keep us
	// out of the floor.
	res2 := tr.TraceSegment(res.End, geom.V(res.End.X, res.End.Y, -100), nil)
	if res2.StartSolid {
		t.Error("second trace started solid — epsilon pullback failed")
	}
	if !res2.Hit {
		t.Error("second trace should still hit the floor")
	}
	// And tracing away from the surface must be free.
	res3 := tr.TraceSegment(res.End, res.End.Add(geom.V(0, 0, 50)), nil)
	if res3.Hit {
		t.Errorf("trace away from floor hit: %+v", res3)
	}
}

func TestTraceBoxDoorway(t *testing.T) {
	tr, m := testTree(t)
	if len(m.Portals) == 0 {
		t.Skip("no portals")
	}
	p := m.Portals[0]
	a := m.Rooms[p.RoomA].Bounds.Center()
	b := m.Rooms[p.RoomB].Bounds.Center()
	// Trace at standing height: box top must clear the 112-unit doorway.
	a.Z = 53
	b.Z = 53
	door := p.Bounds.Center()

	// A player-sized box fits through the 64-unit doorway.
	playerHE := geom.V(16, 16, 24)
	t1 := tr.TraceBox(a, geom.V(door.X, door.Y, a.Z), playerHE, nil)
	if t1.Hit {
		t.Errorf("player box blocked reaching doorway: %+v", t1)
	}
	// A box wider than the doorway cannot pass the wall plane.
	fatHE := geom.V(40, 40, 24)
	t2 := tr.TraceBox(a, b, fatHE, nil)
	if !t2.Hit {
		t.Error("oversized box passed through doorway")
	}
}

func TestTraceBoxStartSolid(t *testing.T) {
	tr, _ := testTree(t)
	inWall := geom.V(100, 100, -8)
	res := tr.TraceBox(inWall, inWall.Add(geom.V(10, 0, 0)), geom.V(4, 4, 4), nil)
	if !res.StartSolid || !res.Hit || res.Fraction != 0 {
		t.Errorf("start-solid trace = %+v", res)
	}
	if res.End != inWall {
		t.Errorf("start-solid end = %v, want start", res.End)
	}
}

func TestTraceZeroLength(t *testing.T) {
	tr, m := testTree(t)
	c := m.Rooms[0].Bounds.Center()
	res := tr.TraceSegment(c, c, nil)
	if res.Hit || res.Fraction != 1 {
		t.Errorf("zero-length open trace = %+v", res)
	}
}

// sweepFamilies is the number of case families sweepCase draws from.
const sweepFamilies = 12

// playerHull is the half extents of the player's movement hull.
var playerHull = geom.V(16, 16, 28)

// sweepCase draws one sweep of family fam (mod sweepFamilies) for a tree:
// the shapes the game layer produces (hull steps, aim and rail rays,
// gravity probes) plus the boundary cases a traversal can get wrong.
func sweepCase(r *rand.Rand, tr *Tree, fam int) (a, b, he geom.Vec3) {
	bounds := tr.Bounds()
	size := bounds.Size()
	randPt := func() geom.Vec3 {
		return bounds.Min.Add(geom.V(r.Float64()*size.X, r.Float64()*size.Y, r.Float64()*size.Z))
	}
	randDir := func() geom.Vec3 {
		return geom.Forward(geom.V(r.Float64()*180-90, r.Float64()*360, 0))
	}
	grid := func(p geom.Vec3) geom.Vec3 {
		return geom.V(math.Round(p.X/16)*16, math.Round(p.Y/16)*16, math.Round(p.Z/16)*16)
	}
	eitherHull := func() geom.Vec3 {
		if r.Intn(2) == 0 {
			return playerHull
		}
		return geom.Vec3{}
	}
	// Start in open space where there is some to be found: a sweep that
	// starts solid is decided at t=0 and exercises little (case 10 asks
	// for it; hull sweeps and grid snapping still produce their share).
	a = randPt()
	for try := 0; try < 8 && tr.PointSolid(a, nil); try++ {
		a = randPt()
	}
	switch fam % sweepFamilies {
	case 0: // point sweep across the map
		b = randPt()
	case 1: // hull sweep across the map
		b, he = randPt(), playerHull
	case 2: // weaponFrame's aim ray
		b = a.MA(2048, randDir())
	case 3: // fireRail's ray
		b = a.MA(1e5, randDir())
	case 4: // sub-unit hull step
		b, he = a.Add(geom.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5)), playerHull
	case 5: // one physics step of a running player
		b, he = a.MA(r.Float64()*40, randDir()), playerHull
	case 6: // grid-aligned endpoints: exact face, edge and corner contacts
		a, b, he = grid(a), grid(randPt()), eitherHull()
	case 7: // axis-parallel motion from a grid point
		a = grid(a)
		b, he = a.SetAxis(r.Intn(3), grid(randPt()).X), eitherHull()
	case 8: // purely vertical: gravity and step probes
		b, he = a.Add(geom.V(0, 0, r.Float64()*128-64)), eitherHull()
	case 9: // zero length
		if r.Intn(2) == 0 {
			a = grid(a)
		}
		b, he = a, eitherHull()
	case 10: // start inside a brush
		box := tr.brushes[r.Intn(len(tr.brushes))]
		s := box.Size()
		a = box.Min.Add(geom.V(r.Float64()*s.X, r.Float64()*s.Y, r.Float64()*s.Z))
		b, he = randPt(), eitherHull()
	case 11: // leaving, entering or missing Bounds
		b, he = a.MA(3*size.Len(), randDir()), eitherHull()
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		if r.Intn(4) == 0 {
			a = b.Add(geom.V(r.Float64()*64, r.Float64()*64, r.Float64()*64))
		}
	}
	return a, b, he
}

// bruteTrace is the trace defined without any tree: every brush, in
// index order, through the shared slab test and nearest rule.
func bruteTrace(tr *Tree, a, b, he geom.Vec3) Trace {
	best := noHit()
	for bi, box := range tr.brushes {
		best.test(box, int32(bi), a, b, he)
	}
	return best.trace(a, b)
}

// sameTrace compares two traces bit for bit (so -0 differs from +0).
func sameTrace(x, y Trace) bool {
	bits := func(t Trace) [7]uint64 {
		return [7]uint64{
			math.Float64bits(t.Fraction),
			math.Float64bits(t.End.X), math.Float64bits(t.End.Y), math.Float64bits(t.End.Z),
			math.Float64bits(t.Normal.X), math.Float64bits(t.Normal.Y), math.Float64bits(t.Normal.Z),
		}
	}
	return bits(x) == bits(y) && x.Brush == y.Brush && x.Hit == y.Hit && x.StartSolid == y.StartSolid
}

// checkSweep runs one sweep through the front-to-back walk, the
// exhaustive Reference walk and the tree-less scan, and fails unless all
// three agree bit for bit and the fast walk did no more work than the
// exhaustive one.
func checkSweep(t testing.TB, tr, ref *Tree, a, b, he geom.Vec3) (got Trace, fast, exhaustive Work) {
	t.Helper()
	got = tr.TraceBox(a, b, he, &fast)
	want := ref.TraceBox(a, b, he, &exhaustive)
	if !sameTrace(got, want) {
		t.Fatalf("a=%v b=%v he=%v:\n front-to-back %+v\n reference     %+v", a, b, he, got, want)
	}
	if brute := bruteTrace(tr, a, b, he); !sameTrace(want, brute) {
		t.Fatalf("a=%v b=%v he=%v:\n reference %+v\n scan      %+v", a, b, he, want, brute)
	}
	if fast.Nodes > exhaustive.Nodes || fast.BrushTests > exhaustive.BrushTests {
		t.Fatalf("a=%v b=%v he=%v: front-to-back work %+v exceeds the reference's %+v", a, b, he, fast, exhaustive)
	}
	return got, fast, exhaustive
}

// equivalenceTrees are the maps the equivalence test and the fuzz target
// run on: the default 6x6 maze, a second seed of it, and the open arena.
func equivalenceTrees(t testing.TB) map[string]*Tree {
	t.Helper()
	reseeded := worldmap.DefaultConfig()
	reseeded.Seed = 7
	arena, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Tree{
		"default": treeOf(worldmap.MustGenerate(worldmap.DefaultConfig())),
		"seed7":   treeOf(worldmap.MustGenerate(reseeded)),
		"arena":   treeOf(arena),
	}
}

// TestTraceMatchesBruteForce is the equivalence proof for the
// front-to-back walk: on every seeded sweep it must return exactly what
// the exhaustive Reference walk returns — Fraction, End, Hit, StartSolid,
// Normal and Brush — which in turn must be what a scan of every brush
// returns, and it must never do more work.
func TestTraceMatchesBruteForce(t *testing.T) {
	sweeps := 200_000
	if testing.Short() {
		sweeps = 20_000
	}
	for name, tr := range equivalenceTrees(t) {
		tr := tr
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := tr.Reference()
			r := rand.New(rand.NewSource(11))
			var fast, exhaustive Work
			hits, solid := 0, 0
			for i := 0; i < sweeps; i++ {
				a, b, he := sweepCase(r, tr, i)
				res, f, e := checkSweep(t, tr, ref, a, b, he)
				fast.Add(f)
				exhaustive.Add(e)
				if res.StartSolid {
					solid++
				} else if res.Hit {
					hits++
				}
			}
			if hits < sweeps/4 || solid < sweeps/50 || hits+solid > sweeps*9/10 {
				t.Errorf("unbalanced corpus: %d hits, %d start-solid of %d sweeps", hits, solid, sweeps)
			}
			n := float64(sweeps)
			t.Logf("%d sweeps (%d hits, %d start-solid): %.1f tests %.1f nodes per sweep front to back, %.1f / %.1f exhaustive",
				sweeps, hits, solid, float64(fast.BrushTests)/n, float64(fast.Nodes)/n,
				float64(exhaustive.BrushTests)/n, float64(exhaustive.Nodes)/n)
		})
	}
}

// FuzzTraceBox lets the fuzzer look for a sweep on which the two walks
// and the scan disagree, starting from one of each seeded family.
func FuzzTraceBox(f *testing.F) {
	tr, _ := testTree(f)
	ref := tr.Reference()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 4*sweepFamilies; i++ {
		a, b, he := sweepCase(r, tr, i)
		f.Add(a.X, a.Y, a.Z, b.X, b.Y, b.Z, he.X, he.Y, he.Z)
	}
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz, hx, hy, hz float64) {
		a, b, he := geom.V(ax, ay, az), geom.V(bx, by, bz), geom.V(hx, hy, hz).Abs()
		// Only coordinates a game can produce: finite, and small enough
		// that rounding in b-a stays far below surfaceEpsilon.
		for _, v := range []geom.Vec3{a, b, he} {
			if !v.IsFinite() || v.Abs().Dot(geom.V(1, 1, 1)) > 1e7 {
				t.Skip()
			}
		}
		checkSweep(t, tr, ref, a, b, he)
	})
}

// aimRays returns n seeded rays of weaponFrame's shape: from eye height
// somewhere in a room, 2048 units along a player's view direction.
func aimRays(m *worldmap.Map, n int) [][2]geom.Vec3 {
	r := rand.New(rand.NewSource(3))
	rays := make([][2]geom.Vec3, n)
	for i := range rays {
		room := m.Rooms[r.Intn(len(m.Rooms))].Bounds.Expand(-16)
		s := room.Size()
		eye := geom.V(room.Min.X+r.Float64()*s.X, room.Min.Y+r.Float64()*s.Y, room.Min.Z+16+24+20)
		dir := geom.Forward(geom.V(r.Float64()*60-30, r.Float64()*360, 0))
		rays[i] = [2]geom.Vec3{eye, eye.MA(2048, dir)}
	}
	return rays
}

// TestTraceWorkBudget pins what the front-to-back walk is for. Work
// counts are a pure function of the map and the sweep, so they repeat
// exactly and can gate in plain `go test`: the aim ray every move
// command traces must cost a few dozen slab tests, where the exhaustive
// walk spends hundreds.
func TestTraceWorkBudget(t *testing.T) {
	tr, m := testTree(t)
	ref := tr.Reference()
	const n = 1024
	var fast, exhaustive Work
	for _, ray := range aimRays(m, n) {
		_, f, e := checkSweep(t, tr, ref, ray[0], ray[1], geom.Vec3{})
		fast.Add(f)
		exhaustive.Add(e)
	}
	tests, nodes := float64(fast.BrushTests)/n, float64(fast.Nodes)/n
	t.Logf("2048-unit aim ray: %.1f tests %.1f nodes front to back, %.1f / %.1f exhaustive",
		tests, nodes, float64(exhaustive.BrushTests)/n, float64(exhaustive.Nodes)/n)
	if tests > 32 || nodes > 48 {
		t.Errorf("aim ray costs %.1f brush tests and %.1f nodes, budget 32 and 48", tests, nodes)
	}
	if exhaustive.BrushTests < 10*fast.BrushTests {
		t.Errorf("exhaustive walk does %d tests to the front-to-back walk's %d: the rays no longer exercise the difference",
			exhaustive.BrushTests, fast.BrushTests)
	}
	ray := aimRays(m, 1)[0]
	for name, tree := range map[string]*Tree{"front-to-back": tr, "reference": ref} {
		if allocs := testing.AllocsPerRun(100, func() { tree.TraceBox(ray[0], ray[1], playerHull, nil) }); allocs != 0 {
			t.Errorf("%s TraceBox allocates %.0f objects per call", name, allocs)
		}
	}
}

func TestWorkCountersInTraces(t *testing.T) {
	tr, m := testTree(t)
	var w Work
	c := m.Rooms[0].Bounds.Center()
	tr.TraceSegment(c, c.Add(geom.V(500, 0, 0)), &w)
	if w.Nodes == 0 {
		t.Error("trace visited no nodes")
	}
	before := w
	tr.TraceSegment(c, c.Add(geom.V(500, 0, 0)), &w)
	if w.Nodes <= before.Nodes {
		t.Error("work counters should accumulate across calls")
	}
	var sum Work
	sum.Add(w)
	sum.Add(before)
	if sum.Nodes != w.Nodes+before.Nodes || sum.BrushTests != w.BrushTests+before.BrushTests {
		t.Error("Work.Add arithmetic wrong")
	}
}

func TestDegenerateTreeSingleBrush(t *testing.T) {
	b := geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10))
	tr := NewTree([]geom.AABB{b}, b.Expand(100))
	if !tr.PointSolid(geom.V(5, 5, 5), nil) {
		t.Error("point in single brush not solid")
	}
	res := tr.TraceSegment(geom.V(-50, 5, 5), geom.V(50, 5, 5), nil)
	if !res.Hit || res.Normal != geom.V(-1, 0, 0) {
		t.Errorf("single brush trace = %+v", res)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := NewTree(nil, geom.Box(geom.V(-100, -100, -100), geom.V(100, 100, 100)))
	if tr.PointSolid(geom.V(0, 0, 0), nil) {
		t.Error("empty tree reports solid")
	}
	res := tr.TraceSegment(geom.V(-50, 0, 0), geom.V(50, 0, 0), nil)
	if res.Hit {
		t.Error("empty tree trace hit something")
	}
}

// BenchmarkTraceBox times the two sweeps move execution is made of — a
// player-hull step and weaponFrame's 2048-unit aim ray — and the aim ray
// again on the exhaustive Reference walk the simulated machine prices.
func BenchmarkTraceBox(b *testing.B) {
	tr, m := testTree(b)
	rays := aimRays(m, 256)
	steps := make([][2]geom.Vec3, len(rays))
	for i, ray := range rays {
		from := ray[0].Sub(geom.V(0, 0, 20))
		steps[i] = [2]geom.Vec3{from, from.MA(10.0/2048, ray[1].Sub(ray[0]))}
	}
	arms := []struct {
		name   string
		tree   *Tree
		sweeps [][2]geom.Vec3
		he     geom.Vec3
	}{
		{"hull", tr, steps, playerHull},
		{"ray2048", tr, rays, geom.Vec3{}},
		{"ray2048/reference", tr.Reference(), rays, geom.Vec3{}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			var w Work
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := arm.sweeps[i%len(arm.sweeps)]
				arm.tree.TraceBox(s[0], s[1], arm.he, &w)
			}
			b.ReportMetric(float64(w.BrushTests)/float64(b.N), "tests/op")
		})
	}
}

func BenchmarkPointSolid(b *testing.B) {
	tr, m := testTree(b)
	c := m.Rooms[3].Bounds.Center()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PointSolid(c, nil)
	}
}
