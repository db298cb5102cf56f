package locking

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"qserve/internal/areanode"
	"qserve/internal/geom"
)

func world() geom.AABB {
	return geom.Box(geom.V(-16, -16, -16), geom.V(1616, 1616, 208))
}

func sampleReq() Request {
	start := geom.V(800, 800, 50)
	return Request{
		Start:   start,
		MoveBox: geom.BoxAt(start, geom.V(30, 30, 40)),
		AimDir:  geom.V(1, 0, 0),
		Range:   120,
	}
}

func TestConservativeRegions(t *testing.T) {
	var s Conservative
	if s.Name() != "conservative" {
		t.Errorf("name = %q", s.Name())
	}
	req := sampleReq()
	short := s.Region(world(), req, KindShortRange)
	if !short.ContainsBox(req.MoveBox) {
		t.Error("short-range region does not contain move box")
	}
	if short.Volume() <= req.MoveBox.Volume() {
		t.Error("short-range region not enlarged")
	}
	if got := s.Region(world(), req, KindLongRangeDeferred); got != world() {
		t.Errorf("deferred long-range should lock whole map, got %v", got)
	}
	if got := s.Region(world(), req, KindLongRangeImmediate); got != world() {
		t.Errorf("immediate long-range should lock whole map, got %v", got)
	}
}

func TestOptimizedRegions(t *testing.T) {
	var s Optimized
	if s.Name() != "optimized" {
		t.Errorf("name = %q", s.Name())
	}
	req := sampleReq()
	w := world()

	short := s.Region(w, req, KindShortRange)
	if !short.ContainsBox(req.MoveBox) {
		t.Error("short region must contain move box")
	}

	exp := s.Region(w, req, KindLongRangeDeferred)
	if !exp.ContainsBox(req.MoveBox) {
		t.Error("expanded region must contain move box")
	}
	if exp == w {
		t.Error("expanded locking degenerated to whole map")
	}
	// Expansion amount follows Range.
	if exp.Min.X > req.MoveBox.Min.X-req.Range+1 {
		t.Errorf("expansion too small: %v", exp)
	}

	dir := s.Region(w, req, KindLongRangeImmediate)
	if !dir.Contains(req.Start) {
		t.Error("directional region must contain the player")
	}
	if dir == w {
		t.Error("directional locking degenerated to whole map for axis aim")
	}
	// Aiming +x from the center: region must reach the east boundary but
	// not the west one.
	if dir.Max.X < w.Max.X-1 {
		t.Errorf("directional region does not reach world edge: %v", dir)
	}
	if dir.Min.X < w.Min.X+100 {
		t.Errorf("directional region extends too far backwards: %v", dir)
	}
}

func TestOptimizedSmallerThanConservative(t *testing.T) {
	var c Conservative
	var o Optimized
	w := world()
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		start := geom.V(r.Float64()*1500, r.Float64()*1500, 50)
		req := Request{
			Start:   start,
			MoveBox: geom.BoxAt(start, geom.V(30, 30, 40)),
			AimDir:  geom.Forward(geom.V(0, r.Float64()*360, 0)),
			Range:   60 + r.Float64()*200,
		}
		for _, kind := range []Kind{KindLongRangeDeferred, KindLongRangeImmediate} {
			cv := c.Region(w, req, kind).Volume()
			ov := o.Region(w, req, kind).Volume()
			if ov > cv+1e-6 {
				t.Fatalf("optimized region larger than conservative for %v", kind)
			}
		}
	}
}

func TestDirectionalBoxProperties(t *testing.T) {
	w := world()
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 1000; i++ {
		start := geom.V(
			w.Min.X+r.Float64()*(w.Max.X-w.Min.X),
			w.Min.Y+r.Float64()*(w.Max.Y-w.Min.Y),
			w.Min.Z+r.Float64()*(w.Max.Z-w.Min.Z),
		)
		dir := geom.Forward(geom.V(r.Float64()*120-60, r.Float64()*360, 0))
		box := DirectionalBox(w, start, dir, 16)
		if !box.Contains(start) {
			t.Fatalf("directional box misses start: %v %v", start, box)
		}
		// The exit point along dir must be inside the (expanded) box.
		end := box.ClampPoint(start.MA(1e6, dir))
		if !box.Contains(end) {
			t.Fatalf("directional box misses ray: %v", box)
		}
	}
	// Degenerate direction falls back to the whole world.
	if got := DirectionalBox(w, geom.V(0, 0, 0), geom.Vec3{}, 16); got != w {
		t.Errorf("zero-direction box = %v", got)
	}
}

// TestDirectionalCornerCaveat reproduces the paper's observation: aiming
// across the world diagonal makes directional locking cover most of the
// map, while aiming at a nearby wall covers little.
func TestDirectionalCornerCaveat(t *testing.T) {
	w := world()
	nearWall := DirectionalBox(w, geom.V(100, 800, 50), geom.V(-1, 0, 0), 16)
	acrossMap := DirectionalBox(w, geom.V(100, 100, 50), geom.V(1, 1, 0).Norm(), 16)
	if nearWall.Volume() >= acrossMap.Volume() {
		t.Errorf("near-wall volume %v should be far below diagonal volume %v",
			nearWall.Volume(), acrossMap.Volume())
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindShortRange, KindLongRangeDeferred, KindLongRangeImmediate} {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d stringer broken", k)
		}
	}
	if Kind(42).String() != "unknown" {
		t.Error("unknown kind stringer")
	}
}

func TestAcquireReleaseOrdering(t *testing.T) {
	tr := areanode.NewTree(world(), areanode.DefaultDepth)
	var seq []int32
	rec := recordingProvider{events: &seq}
	rl := &RegionLocker{Tree: tr, Provider: &rec}

	var stats AcquireStats
	g := rl.Acquire(world(), &stats)
	if stats.DistinctLeaves != tr.NumLeaves() || stats.LeafLockOps != tr.NumLeaves() {
		t.Errorf("stats = %+v, want all %d leaves", stats, tr.NumLeaves())
	}
	if len(g.Leaves()) != tr.NumLeaves() {
		t.Fatalf("guard holds %d leaves", len(g.Leaves()))
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatal("lock acquisition not in ascending node order")
		}
	}
	locks := len(seq)
	g.Release()
	if len(seq) != 2*locks {
		t.Fatalf("release performed %d unlocks, want %d", len(seq)-locks, locks)
	}
	// Unlocks in reverse order.
	for i := 0; i < locks; i++ {
		if seq[locks+i] != seq[locks-1-i] {
			t.Fatal("release order not reverse of acquire order")
		}
	}
	g.Release() // second release is a no-op
	if len(seq) != 2*locks {
		t.Error("double release performed extra unlocks")
	}
}

type recordingProvider struct {
	events *[]int32
}

func (p *recordingProvider) LockNode(n int32)   { *p.events = append(*p.events, n) }
func (p *recordingProvider) UnlockNode(n int32) { *p.events = append(*p.events, n) }

func TestGuardCovers(t *testing.T) {
	tr := areanode.NewTree(world(), areanode.DefaultDepth)
	rl := &RegionLocker{Tree: tr, Provider: NopProvider{}}
	small := geom.BoxAt(geom.V(100, 100, 50), geom.V(20, 20, 20))
	g := rl.Acquire(small, nil)
	if !g.Covers(small) {
		t.Error("guard does not cover its own region")
	}
	if g.Covers(world()) {
		t.Error("small guard claims to cover the world")
	}
	g.Release()
}

func TestParentGuardLocksInteriorOnly(t *testing.T) {
	tr := areanode.NewTree(world(), 2)
	var seq []int32
	rec := recordingProvider{events: &seq}
	rl := &RegionLocker{Tree: tr, Provider: &rec}
	var stats AcquireStats
	guard := rl.ParentGuard(&stats)

	// Link items at root (crossing) and in a leaf.
	rootItem := &areanode.Item{ID: 1}
	mid := tr.Node(0).Plane.Dist
	tr.Link(rootItem, geom.Box(geom.V(mid-5, 100, 0), geom.V(mid+5, 120, 20)))
	leafItem := &areanode.Item{ID: 2}
	tr.Link(leafItem, geom.BoxAt(geom.V(100, 100, 50), geom.V(5, 5, 5)))

	visited := 0
	tr.CollectBox(world(), guard, func(*areanode.Item) bool { visited++; return true }, nil)
	if visited != 2 {
		t.Errorf("collected %d items", visited)
	}
	// Every guard event must be an interior node, each locked and
	// unlocked (paired).
	if len(seq)%2 != 0 {
		t.Fatalf("unpaired lock events: %v", seq)
	}
	interior := tr.NumNodes() - tr.NumLeaves()
	if stats.ParentLockOps != interior {
		t.Errorf("parent lock ops = %d, want %d (world query scans all interiors)", stats.ParentLockOps, interior)
	}
	for i := 0; i < len(seq); i += 2 {
		if seq[i] != seq[i+1] {
			t.Fatalf("parent lock %d not released before next: %v", seq[i], seq)
		}
		if tr.Node(seq[i]).IsLeaf() {
			t.Fatalf("leaf %d locked by parent guard", seq[i])
		}
	}
}

// TestConcurrentMutualExclusion drives many goroutines acquiring
// overlapping regions through a MutexProvider and verifies (a) no
// deadlock, (b) no two goroutines hold the same leaf simultaneously.
func TestConcurrentMutualExclusion(t *testing.T) {
	tr := areanode.NewTree(world(), areanode.DefaultDepth)
	prov := NewMutexProvider(tr.NumNodes())
	holders := make([]atomic.Int32, tr.NumNodes())

	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	errCh := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rl := &RegionLocker{Tree: tr, Provider: prov}
			r := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < iters; i++ {
				c := geom.V(r.Float64()*1600, r.Float64()*1600, 50)
				region := geom.BoxAt(c, geom.V(50+r.Float64()*400, 50+r.Float64()*400, 60))
				guard := rl.Acquire(region, nil)
				for _, ni := range guard.Leaves() {
					if holders[ni].Add(1) != 1 {
						errCh <- "two holders on one leaf"
					}
				}
				time.Sleep(time.Microsecond)
				for _, ni := range guard.Leaves() {
					holders[ni].Add(-1)
				}
				guard.Release()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case msg := <-errCh:
		t.Fatal(msg)
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: goroutines did not finish")
	}
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}
}

func TestAcquireStatsAdd(t *testing.T) {
	a := AcquireStats{LeafLockOps: 1, DistinctLeaves: 2, ParentLockOps: 3}
	b := AcquireStats{LeafLockOps: 10, DistinctLeaves: 20, ParentLockOps: 30}
	a.Add(b)
	if a != (AcquireStats{LeafLockOps: 11, DistinctLeaves: 22, ParentLockOps: 33}) {
		t.Errorf("Add = %+v", a)
	}
}

func BenchmarkAcquireRelease(b *testing.B) {
	tr := areanode.NewTree(world(), areanode.DefaultDepth)
	prov := NewMutexProvider(tr.NumNodes())
	rl := &RegionLocker{Tree: tr, Provider: prov}
	region := geom.BoxAt(geom.V(800, 800, 50), geom.V(120, 120, 60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := rl.Acquire(region, nil)
		g.Release()
	}
}

func TestTryAcquireSuccessAndConflict(t *testing.T) {
	tr := areanode.NewTree(world(), areanode.DefaultDepth)
	p := NewMutexProvider(tr.NumNodes())
	rl := &RegionLocker{Tree: tr, Provider: p}

	small := geom.BoxAt(geom.V(100, 100, 50), geom.V(20, 20, 20))
	var stats AcquireStats
	g, ok := rl.TryAcquire(small, &stats)
	if !ok {
		t.Fatal("TryAcquire failed on uncontended locks")
	}
	if len(g.Leaves()) == 0 || stats.DistinctLeaves != len(g.Leaves()) {
		t.Fatalf("guard leaves=%d stats=%+v", len(g.Leaves()), stats)
	}
	// A second locker over the same provider must be refused while the
	// guard holds, and succeed after release.
	rl2 := &RegionLocker{Tree: tr, Provider: p}
	if _, ok := rl2.TryAcquire(small, nil); ok {
		t.Fatal("TryAcquire succeeded on a held region")
	}
	g.Release()
	g2, ok := rl2.TryAcquire(small, nil)
	if !ok {
		t.Fatal("TryAcquire failed after the region was released")
	}
	g2.Release()
}

func TestTryAcquireRollsBackOnConflict(t *testing.T) {
	tr := areanode.NewTree(world(), areanode.DefaultDepth)
	p := NewMutexProvider(tr.NumNodes())
	rl := &RegionLocker{Tree: tr, Provider: p}

	region := geom.BoxAt(geom.V(800, 800, 50), geom.V(400, 400, 50))
	leaves := tr.LeavesTouching(region, nil)
	if len(leaves) < 2 {
		t.Fatalf("test region touches %d leaves, need >= 2 for a rollback", len(leaves))
	}
	// Pre-lock the last leaf in ascending order: TryAcquire takes every
	// earlier leaf first, so refusal happens with the most state to undo.
	last := leaves[len(leaves)-1]
	p.LockNode(last)

	var stats AcquireStats
	if _, ok := rl.TryAcquire(region, &stats); ok {
		t.Fatal("TryAcquire succeeded over a pre-locked leaf")
	}
	if want := len(leaves); stats.LeafLockOps != want {
		t.Errorf("probe ops = %d, want %d (each earlier leaf plus the refusal)", stats.LeafLockOps, want)
	}
	if n := rl.ReleaseAll(); n != 0 {
		t.Errorf("locker still held %d leaves after a failed TryAcquire", n)
	}
	// Every leaf but the pre-locked one must be free again.
	for _, ni := range leaves[:len(leaves)-1] {
		if !p.TryLockNode(ni) {
			t.Fatalf("leaf %d left locked after rollback", ni)
		}
		p.UnlockNode(ni)
	}
	if p.TryLockNode(last) {
		t.Fatal("rollback unlocked the conflicting leaf it never acquired")
	}
	p.UnlockNode(last)
}

func TestTryAcquireDegradesWithoutTryProvider(t *testing.T) {
	tr := areanode.NewTree(world(), areanode.DefaultDepth)
	var seq []int32
	rl := &RegionLocker{Tree: tr, Provider: &recordingProvider{events: &seq}}
	small := geom.BoxAt(geom.V(100, 100, 50), geom.V(20, 20, 20))
	g, ok := rl.TryAcquire(small, nil)
	if !ok {
		t.Fatal("TryAcquire with a blocking-only provider must degrade to Acquire")
	}
	g.Release()
}

func TestNodeMutexFillsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(nodeMutex{}); n != 64 {
		t.Fatalf("nodeMutex is %d bytes, want one 64-byte cache line", n)
	}
}
