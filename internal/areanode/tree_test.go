package areanode

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"qserve/internal/geom"
)

func worldBounds() geom.AABB {
	return geom.Box(geom.V(-16, -16, -16), geom.V(1616, 1616, 208))
}

func TestTreeShape(t *testing.T) {
	for depth := 0; depth <= 6; depth++ {
		tr := NewTree(worldBounds(), depth)
		wantNodes := 1<<(depth+1) - 1
		wantLeaves := 1 << depth
		if tr.NumNodes() != wantNodes {
			t.Errorf("depth %d: nodes = %d, want %d", depth, tr.NumNodes(), wantNodes)
		}
		if tr.NumLeaves() != wantLeaves {
			t.Errorf("depth %d: leaves = %d, want %d", depth, tr.NumLeaves(), wantLeaves)
		}
		if tr.Depth() != depth {
			t.Errorf("Depth() = %d", tr.Depth())
		}
	}
	// The paper's default: depth 4 → 31 areanodes, 16 leaves.
	tr := NewTree(worldBounds(), DefaultDepth)
	if tr.NumNodes() != 31 || tr.NumLeaves() != 16 {
		t.Errorf("default tree: %d nodes / %d leaves, want 31/16", tr.NumNodes(), tr.NumLeaves())
	}
}

func TestTreeSplitsAlternateAxesEqualHalves(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	var walk func(ni int32, wantAxis int)
	walk = func(ni int32, wantAxis int) {
		n := tr.Node(ni)
		if n.IsLeaf() {
			return
		}
		if n.Plane.Axis != wantAxis {
			t.Fatalf("node %d splits axis %d, want %d", ni, n.Plane.Axis, wantAxis)
		}
		if n.Plane.Axis == 2 {
			t.Fatalf("node %d splits on z", ni)
		}
		mid := n.Bounds.Center().Axis(n.Plane.Axis)
		if n.Plane.Dist != mid {
			t.Fatalf("node %d split at %v, want midpoint %v", ni, n.Plane.Dist, mid)
		}
		f, b := tr.Node(n.Children[0]), tr.Node(n.Children[1])
		if f.Bounds.Volume() != b.Bounds.Volume() {
			t.Fatalf("node %d children have unequal volumes", ni)
		}
		// Children keep the full world height.
		if f.Bounds.Min.Z != n.Bounds.Min.Z || f.Bounds.Max.Z != n.Bounds.Max.Z {
			t.Fatalf("node %d child z-range shrunk", ni)
		}
		walk(n.Children[0], 1-wantAxis)
		walk(n.Children[1], 1-wantAxis)
	}
	walk(0, 0)
}

func TestLeavesPartitionWorld(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	var total float64
	for i := 0; i < tr.NumLeaves(); i++ {
		n := tr.Node(tr.LeafNode(int32(i)))
		if !n.IsLeaf() || n.LeafOrdinal != int32(i) {
			t.Fatalf("leaf bookkeeping broken at ordinal %d", i)
		}
		total += n.Bounds.Volume()
	}
	if w := worldBounds().Volume(); total != w {
		t.Errorf("leaf volumes sum to %v, want %v", total, w)
	}
}

func randomItemBox(r *rand.Rand, world geom.AABB) geom.AABB {
	span := world.Size()
	c := geom.V(
		world.Min.X+r.Float64()*span.X,
		world.Min.Y+r.Float64()*span.Y,
		world.Min.Z+r.Float64()*span.Z,
	)
	he := geom.V(1+r.Float64()*40, 1+r.Float64()*40, 1+r.Float64()*40)
	return geom.BoxAt(c, he)
}

// TestLinkPlacementInvariant: an item links at the deepest node reachable
// by whole-side descents — equivalently, its box is contained in that
// node's half-space chain and (if interior) crosses that node's plane.
func TestLinkPlacementInvariant(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		it := &Item{ID: int32(i)}
		box := randomItemBox(r, worldBounds())
		tr.Link(it, box)
		ni := it.NodeIndex()
		if ni < 0 {
			t.Fatal("item not linked")
		}
		n := tr.Node(ni)
		if !n.IsLeaf() && n.Plane.SideBox(box) != geom.SideCross {
			t.Fatalf("item %d linked at interior node %d but does not cross its plane", i, ni)
		}
		// Every ancestor's plane must have the box wholly on the side
		// leading to this node.
		child := ni
		for p := n.Parent; p >= 0; p = tr.Node(p).Parent {
			pn := tr.Node(p)
			side := pn.Plane.SideBox(box)
			if side == geom.SideCross {
				t.Fatalf("item %d: ancestor %d crossed but item linked deeper at %d", i, p, ni)
			}
			wantChild := pn.Children[0]
			if side == geom.SideBack {
				wantChild = pn.Children[1]
			}
			if wantChild != child {
				t.Fatalf("item %d: descent inconsistent at ancestor %d", i, p)
			}
			child = p
		}
		tr.Unlink(it)
	}
	if tr.TotalLinked() != 0 {
		t.Errorf("TotalLinked = %d after unlinking everything", tr.TotalLinked())
	}
}

func TestLinkUnlinkListIntegrity(t *testing.T) {
	tr := NewTree(worldBounds(), 3)
	r := rand.New(rand.NewSource(4))
	items := make([]*Item, 300)
	for i := range items {
		items[i] = &Item{ID: int32(i)}
		tr.Link(items[i], randomItemBox(r, worldBounds()))
	}
	if tr.TotalLinked() != len(items) {
		t.Fatalf("TotalLinked = %d, want %d", tr.TotalLinked(), len(items))
	}
	// Random churn: relink and unlink repeatedly.
	for op := 0; op < 5000; op++ {
		it := items[r.Intn(len(items))]
		switch r.Intn(3) {
		case 0:
			tr.Link(it, randomItemBox(r, worldBounds()))
		case 1:
			tr.Unlink(it)
		case 2:
			tr.Unlink(it)
			tr.Unlink(it) // double unlink must be a no-op
		}
	}
	// Count by walking all lists and compare with TotalLinked.
	seen := make(map[int32]int)
	for ni := int32(0); ni < int32(tr.NumNodes()); ni++ {
		n := tr.Node(ni)
		count := 0
		tr.CollectBox(n.Bounds, nil, func(it *Item) bool { count++; return true }, nil)
		_ = count
		s := &n.sentinel
		for it := s.next; it != s; it = it.next {
			seen[it.ID]++
			if it.NodeIndex() != ni {
				t.Fatalf("item %d in list of node %d but records node %d", it.ID, ni, it.NodeIndex())
			}
		}
	}
	linked := 0
	for _, it := range items {
		if it.Linked() {
			linked++
			if seen[it.ID] != 1 {
				t.Fatalf("linked item %d appears %d times in lists", it.ID, seen[it.ID])
			}
		} else if seen[it.ID] != 0 {
			t.Fatalf("unlinked item %d still in a list", it.ID)
		}
	}
	if linked != tr.TotalLinked() {
		t.Fatalf("TotalLinked=%d, walked=%d", tr.TotalLinked(), linked)
	}
}

// TestCollectBoxMatchesBruteForce: CollectBox must return exactly the
// linked items whose boxes intersect the query (it is precise for our
// axis-plane descent, and at minimum a superset per the paper).
func TestCollectBoxMatchesBruteForce(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	r := rand.New(rand.NewSource(6))
	var items []*Item
	for i := 0; i < 400; i++ {
		it := &Item{ID: int32(i)}
		tr.Link(it, randomItemBox(r, worldBounds()))
		items = append(items, it)
	}
	for q := 0; q < 500; q++ {
		query := randomItemBox(r, worldBounds())
		want := map[int32]bool{}
		for _, it := range items {
			if it.Box.Intersects(query) {
				want[it.ID] = true
			}
		}
		got := map[int32]bool{}
		var st TraversalStats
		tr.CollectBox(query, nil, func(it *Item) bool {
			if got[it.ID] {
				t.Fatalf("item %d visited twice", it.ID)
			}
			got[it.ID] = true
			return true
		}, &st)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d items, want %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %d: missing item %d", q, id)
			}
		}
		if st.ItemsMatched != len(got) || st.NodesVisited == 0 {
			t.Fatalf("stats inconsistent: %+v", st)
		}
	}
}

func TestCollectBoxEarlyStop(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	for i := 0; i < 50; i++ {
		it := &Item{ID: int32(i)}
		tr.Link(it, geom.BoxAt(geom.V(800, 800, 100), geom.V(5, 5, 5)))
	}
	visits := 0
	tr.CollectBox(worldBounds(), nil, func(it *Item) bool {
		visits++
		return visits < 10
	}, nil)
	if visits != 10 {
		t.Errorf("early stop visited %d items", visits)
	}
}

func TestCollectBoxGuard(t *testing.T) {
	tr := NewTree(worldBounds(), 2)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		it := &Item{ID: int32(i)}
		tr.Link(it, randomItemBox(r, worldBounds()))
	}
	guard := &recordingGuard{entered: map[int32]int{}, leaf: map[int32]bool{}, open: -1}
	count := 0
	tr.CollectBox(worldBounds(), guard, func(*Item) bool {
		if guard.open < 0 {
			t.Fatal("visitor ran outside the guard's bracket")
		}
		count++
		return true
	}, nil)
	if count != 100 {
		t.Errorf("guarded collect returned %d of 100", count)
	}
	// A world-sized query visits every node exactly once, and closes each
	// bracket before opening the next.
	if len(guard.entered) != tr.NumNodes() {
		t.Errorf("guard entered on %d nodes, want %d", len(guard.entered), tr.NumNodes())
	}
	if guard.open != -1 || guard.nested {
		t.Errorf("brackets left open (%d) or nested (%v)", guard.open, guard.nested)
	}
	for ni, isLeaf := range guard.leaf {
		if tr.Node(ni).IsLeaf() != isLeaf {
			t.Errorf("node %d leaf flag mismatch", ni)
		}
	}
}

// recordingGuard counts the nodes a NodeGuard is entered on and checks
// that brackets pair up without nesting. open is the node inside the
// current bracket, -1 between brackets.
type recordingGuard struct {
	entered map[int32]int
	leaf    map[int32]bool
	open    int32
	nested  bool
}

func (g *recordingGuard) Enter(node int32, isLeaf bool) {
	if g.open != -1 {
		g.nested = true
	}
	g.entered[node]++
	g.leaf[node] = isLeaf
	g.open = node
}

func (g *recordingGuard) Exit(node int32, _ bool) {
	if g.open != node {
		g.nested = true
	}
	g.open = -1
}

func TestLeavesTouching(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	// World box touches all leaves.
	all := tr.LeavesTouching(worldBounds(), nil)
	if len(all) != tr.NumLeaves() {
		t.Fatalf("world query touches %d leaves, want %d", len(all), tr.NumLeaves())
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Error("leaf set not in ascending node order")
	}

	// A point-sized box in a leaf interior touches exactly one leaf.
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 1000; i++ {
		box := randomItemBox(r, worldBounds())
		leaves := tr.LeavesTouching(box, nil)
		if len(leaves) == 0 {
			t.Fatal("box touches no leaves")
		}
		if !sort.SliceIsSorted(leaves, func(a, b int) bool { return leaves[a] < leaves[b] }) {
			t.Fatal("leaf lock order not ascending")
		}
		// Every returned leaf must intersect the box, and every leaf
		// intersecting the box must be returned.
		got := map[int32]bool{}
		for _, ni := range leaves {
			got[ni] = true
			if !tr.Node(ni).Bounds.Intersects(box) {
				t.Fatalf("leaf %d returned but does not intersect", ni)
			}
		}
		for li := 0; li < tr.NumLeaves(); li++ {
			ni := tr.LeafNode(int32(li))
			if tr.Node(ni).Bounds.IntersectsStrict(box) && !got[ni] {
				t.Fatalf("leaf %d intersects but missing", ni)
			}
		}
	}
}

func TestLeafContaining(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	r := rand.New(rand.NewSource(12))
	w := worldBounds()
	for i := 0; i < 2000; i++ {
		p := geom.V(
			w.Min.X+r.Float64()*(w.Max.X-w.Min.X),
			w.Min.Y+r.Float64()*(w.Max.Y-w.Min.Y),
			w.Min.Z+r.Float64()*(w.Max.Z-w.Min.Z),
		)
		ni := tr.LeafContaining(p)
		n := tr.Node(ni)
		if !n.IsLeaf() {
			t.Fatal("LeafContaining returned interior node")
		}
		if !n.Bounds.Contains(p) {
			t.Fatalf("point %v not in returned leaf %v", p, n.Bounds)
		}
	}
}

func TestRootCrossersStayAtRoot(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	root := tr.Node(0)
	// A box straddling the root plane links at the root.
	mid := root.Plane.Dist
	box := geom.Box(
		geom.V(mid-10, 100, 0),
		geom.V(mid+10, 150, 50),
	)
	it := &Item{ID: 1}
	tr.Link(it, box)
	if it.NodeIndex() != 0 {
		t.Errorf("root-crossing item linked at node %d", it.NodeIndex())
	}
	if root.Count() != 1 {
		t.Errorf("root count = %d", root.Count())
	}
}

func TestRelinkMovesItem(t *testing.T) {
	tr := NewTree(worldBounds(), 4)
	it := &Item{ID: 7}
	boxA := geom.BoxAt(geom.V(100, 100, 50), geom.V(10, 10, 10))
	boxB := geom.BoxAt(geom.V(1500, 1500, 50), geom.V(10, 10, 10))
	tr.Link(it, boxA)
	nodeA := it.NodeIndex()
	tr.Link(it, boxB) // relink without explicit unlink
	nodeB := it.NodeIndex()
	if nodeA == nodeB {
		t.Error("relink across the world kept the same node")
	}
	if tr.TotalLinked() != 1 {
		t.Errorf("TotalLinked = %d after relink", tr.TotalLinked())
	}
}

func TestZeroDepthTree(t *testing.T) {
	tr := NewTree(worldBounds(), 0)
	if tr.NumNodes() != 1 || tr.NumLeaves() != 1 {
		t.Fatalf("depth-0 tree: %d nodes %d leaves", tr.NumNodes(), tr.NumLeaves())
	}
	it := &Item{}
	tr.Link(it, geom.BoxAt(geom.V(5, 5, 5), geom.V(1, 1, 1)))
	if it.NodeIndex() != 0 {
		t.Error("item not linked at sole node")
	}
	leaves := tr.LeavesTouching(geom.BoxAt(geom.V(5, 5, 5), geom.V(1, 1, 1)), nil)
	if len(leaves) != 1 || leaves[0] != 0 {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestCheckFinite(t *testing.T) {
	if !checkFinite(worldBounds()) {
		t.Error("finite box reported non-finite")
	}
}

func BenchmarkLink(b *testing.B) {
	tr := NewTree(worldBounds(), 4)
	r := rand.New(rand.NewSource(1))
	boxes := make([]geom.AABB, 1024)
	for i := range boxes {
		boxes[i] = randomItemBox(r, worldBounds())
	}
	it := &Item{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Link(it, boxes[i%len(boxes)])
	}
}

func BenchmarkCollectBox(b *testing.B) {
	tr := NewTree(worldBounds(), 4)
	r := rand.New(rand.NewSource(1))
	items := make([]Item, 160)
	for i := range items {
		items[i].ID = int32(i)
		tr.Link(&items[i], randomItemBox(r, worldBounds()))
	}
	query := geom.BoxAt(geom.V(800, 800, 100), geom.V(120, 120, 60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CollectBox(query, nil, func(*Item) bool { return true }, nil)
	}
}

func BenchmarkLeavesTouching(b *testing.B) {
	tr := NewTree(worldBounds(), 4)
	query := geom.BoxAt(geom.V(800, 800, 100), geom.V(120, 120, 60))
	buf := make([]int32, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.LeavesTouching(query, buf[:0])
	}
}

// interiorMutex is a NodeGuard with one lock for every interior node.
type interiorMutex struct{ mu sync.Mutex }

func (g *interiorMutex) Enter(_ int32, isLeaf bool) {
	if !isLeaf {
		g.mu.Lock()
	}
}

func (g *interiorMutex) Exit(_ int32, isLeaf bool) {
	if !isLeaf {
		g.mu.Unlock()
	}
}

// TestLinkedIsOwnerReadUnderConcurrentSplices is the -race regression for
// Linked(): two movers whose items share only an ancestor node's list.
// One relinks its item through the interior-node guard, and every splice
// rewrites the neighbour's list pointers under that node's lock; the
// other — as ExecuteMove's relink does before it takes any node lock —
// asks whether its own item is linked. The answer must come from state
// only the item's owner writes.
func TestLinkedIsOwnerReadUnderConcurrentSplices(t *testing.T) {
	tr := NewTree(worldBounds(), 2)
	// Both boxes straddle the root's division plane, so both items link
	// at the root and are list neighbours there.
	c := worldBounds().Center()
	crossing := geom.Box(c.Sub(geom.V(8, 8, 8)), c.Add(geom.V(8, 8, 8)))
	guard := &interiorMutex{}
	still, mover := &Item{ID: 1}, &Item{ID: 2}
	tr.LinkGuarded(still, crossing, guard)
	if still.NodeIndex() != 0 {
		t.Fatalf("crossing item linked at node %d, want the root", still.NodeIndex())
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 2000; i++ {
			tr.LinkGuarded(mover, crossing, guard)
			tr.UnlinkGuarded(mover, guard)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			if !still.Linked() {
				t.Error("item reported unlinked while a neighbour was spliced")
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	if n := tr.TotalLinked(); n != 1 {
		t.Errorf("tree holds %d items after the run, want 1", n)
	}
}
