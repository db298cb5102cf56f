// Package areanode implements the areanode tree from the paper's §2.2: a
// balanced binary partition of the map's full volume, splitting the world
// in equal halves along alternating x/y axes. Every node owns a list of
// the game objects whose boxes it fully contains but whose children's
// volumes do not — an object crossing a division plane links to the
// deepest common ancestor instead of a leaf.
//
// The tree serves two roles, exactly as in the paper:
//
//   - a query accelerator: CollectBox enumerates all objects that may
//     intersect a move's bounding box by walking only the intersecting
//     subtrees (the paper's move-execution step 2);
//   - the unit of region locking: the parallel server locks the leaf
//     areanodes a move's bounding box touches for the duration of the
//     move, plus parent nodes transiently while scanning their lists
//     (§3.3). The lock objects themselves live with the execution engine
//     (real mutexes in the live server, virtual locks in the simulated
//     machine); this package supplies the region→leaf-set mapping and the
//     consistent ordering that makes lock acquisition deadlock-free.
//
// The default depth is 4, "leading to a total of 31 areanodes, 16 of
// which are leafs", and the experiment in Fig. 7(b) varies it.
package areanode

import (
	"fmt"
	"math"

	"qserve/internal/geom"
)

// DefaultDepth is the leaf depth used by the original server: 2^4 = 16
// leaves, 31 nodes total.
const DefaultDepth = 4

// Item is the linkage handle embedded in every game entity. The zero
// value is unlinked. An Item must not be shared between trees.
type Item struct {
	// ID identifies the owning entity; opaque to this package but carried
	// for diagnostics and stable ordering in tests.
	ID int32
	// Box is the entity's absolute bounding box as of the last Link.
	Box geom.AABB
	// Owner points back to the owning entity (avoids a map lookup on
	// collect). Typed as any to keep this package dependency-free.
	Owner any

	// at is 1 + the index of the node the item is linked under, 0 when
	// unlinked. Only the item's own insert and splice write it — never a
	// neighbour's, unlike prev/next — so the item's mover may read it
	// outside the node lock that guards the list.
	at         int32
	prev, next *Item // intrusive circular list with per-node sentinels
}

// Linked reports whether the item is currently linked into a tree.
func (it *Item) Linked() bool { return it.at != 0 }

// NodeIndex returns the node the item is linked under, or -1.
func (it *Item) NodeIndex() int32 { return it.at - 1 }

// Node is one areanode. Exported fields are immutable after NewTree.
type Node struct {
	Plane    geom.AxisPlane
	Bounds   geom.AABB
	Parent   int32
	Children [2]int32 // front, back; -1 for leaves
	Depth    int
	// LeafOrdinal numbers leaves 0..NumLeaves-1 in construction order;
	// -1 for interior nodes.
	LeafOrdinal int32

	sentinel Item // head of this node's object list
	count    int  // list length, maintained for stats
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Children[0] < 0 }

// Count returns the number of items currently linked at this node.
func (n *Node) Count() int { return n.count }

// Tree is the areanode tree. Structure is immutable after construction;
// the per-node object lists are mutated by Link/Unlink. The tree itself
// performs no locking — callers serialize access per the paper's region
// locking protocol (see package locking).
type Tree struct {
	nodes  []Node
	leaves []int32 // node indices of leaves, in ordinal order (ascending)
	bounds geom.AABB
	depth  int
}

// NewTree builds a tree of the given leaf depth over the world bounds.
// Depth 0 yields a single leaf (no partitioning); depth 4 is the engine
// default. Splits alternate x then y, always in equal halves, and never
// split z: "this is a 2D structure, with all areanodes having the same
// height, which is the height of the entire world".
func NewTree(bounds geom.AABB, depth int) *Tree {
	if depth < 0 {
		panic(fmt.Sprintf("areanode: negative depth %d", depth))
	}
	if !bounds.IsValid() {
		panic(fmt.Sprintf("areanode: invalid bounds %v", bounds))
	}
	t := &Tree{bounds: bounds, depth: depth}
	total := 1<<(depth+1) - 1
	t.nodes = make([]Node, 0, total)
	t.build(bounds, 0, -1, 0)
	// Initialize list sentinels after the slice stops growing so the
	// pointers stay valid.
	for i := range t.nodes {
		s := &t.nodes[i].sentinel
		s.prev, s.next = s, s
		if t.nodes[i].IsLeaf() {
			t.nodes[i].LeafOrdinal = int32(len(t.leaves))
			t.leaves = append(t.leaves, int32(i))
		} else {
			t.nodes[i].LeafOrdinal = -1
		}
	}
	return t
}

func (t *Tree) build(bounds geom.AABB, depth int, parent int32, axis int) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, Node{
		Bounds:   bounds,
		Parent:   parent,
		Children: [2]int32{-1, -1},
		Depth:    depth,
	})
	if depth == t.depth {
		return self
	}
	pl := geom.AxisPlane{
		Axis: axis,
		Dist: bounds.Center().Axis(axis),
	}
	front, back := pl.SplitBox(bounds)
	t.nodes[self].Plane = pl
	f := t.build(front, depth+1, self, 1-axis)
	b := t.build(back, depth+1, self, 1-axis)
	t.nodes[self].Children = [2]int32{f, b}
	return self
}

// Depth returns the leaf depth the tree was built with.
func (t *Tree) Depth() int { return t.depth }

// Bounds returns the world volume the tree partitions.
func (t *Tree) Bounds() geom.AABB { return t.bounds }

// NumNodes returns the total areanode count (2^(depth+1) − 1).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the leaf count (2^depth).
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// Node returns node i. The pointer remains valid for the tree's lifetime.
func (t *Tree) Node(i int32) *Node { return &t.nodes[i] }

// LeafNode returns the node index of leaf ordinal i.
func (t *Tree) LeafNode(ordinal int32) int32 { return t.leaves[ordinal] }

// Link inserts the item at the deepest node whose half-space walk fully
// contains box — the engine's SV_LinkEdict placement rule: descend while
// the box lies entirely on one side of the node's plane; stop at the
// first crossing node or at a leaf.
//
// Link is safe only when the caller has exclusive access to every node
// list the item may join or leave (single-threaded phases, or a region
// lock over the whole map). Concurrent movers must use LinkGuarded.
func (t *Tree) Link(it *Item, box geom.AABB) {
	t.LinkGuarded(it, box, nil)
}

// LinkGuarded is Link with the intrusive-list mutation wrapped in guard,
// the same NodeGuard contract CollectBox uses: region-locked leaves scan
// (here: splice) directly, while interior nodes take their lock
// transiently for the splice — without this, two movers whose regions
// share only an ancestor can corrupt that ancestor's list. A nil guard
// splices directly.
func (t *Tree) LinkGuarded(it *Item, box geom.AABB, guard NodeGuard) {
	if it.Linked() {
		t.UnlinkGuarded(it, guard)
	}
	it.Box = box
	ni := int32(0)
	for {
		n := &t.nodes[ni]
		if n.IsLeaf() {
			break
		}
		switch n.Plane.SideBox(box) {
		case geom.SideFront:
			ni = n.Children[0]
		case geom.SideBack:
			ni = n.Children[1]
		default:
			// Crossing: link here.
			goto done
		}
	}
done:
	n := &t.nodes[ni]
	if guard != nil {
		leaf := n.IsLeaf()
		guard.Enter(ni, leaf)
		defer guard.Exit(ni, leaf)
	}
	n.insert(it, ni)
}

// insert splices it onto the head of n's list; ni is n's index.
func (n *Node) insert(it *Item, ni int32) {
	s := &n.sentinel
	it.at = ni + 1
	it.next = s.next
	it.prev = s
	s.next.prev = it
	s.next = it
	n.count++
}

// Unlink removes the item from the tree. Unlinking an unlinked item is a
// no-op, matching the engine's SV_UnlinkEdict tolerance. Like Link, it
// requires exclusive access to the item's node list; concurrent movers
// use UnlinkGuarded.
func (t *Tree) Unlink(it *Item) {
	t.UnlinkGuarded(it, nil)
}

// UnlinkGuarded is Unlink with the list splice wrapped in guard (see
// LinkGuarded). A nil guard splices directly.
func (t *Tree) UnlinkGuarded(it *Item, guard NodeGuard) {
	if !it.Linked() {
		return
	}
	ni := it.NodeIndex()
	n := &t.nodes[ni]
	if guard != nil {
		leaf := n.IsLeaf()
		guard.Enter(ni, leaf)
		defer guard.Exit(ni, leaf)
	}
	n.remove(it)
}

// remove splices it out of n's list.
func (n *Node) remove(it *Item) {
	n.count--
	it.prev.next = it.next
	it.next.prev = it.prev
	it.prev, it.next = nil, nil
	it.at = 0
}

// TraversalStats counts the work of a CollectBox call, feeding both the
// live profiler and the simulated-machine cost model.
type TraversalStats struct {
	NodesVisited int // areanodes whose lists were scanned
	ItemsChecked int // box-overlap tests against linked objects
	ItemsMatched int // objects passed to the visitor
}

// Add accumulates o into s.
func (s *TraversalStats) Add(o TraversalStats) {
	s.NodesVisited += o.NodesVisited
	s.ItemsChecked += o.ItemsChecked
	s.ItemsMatched += o.ItemsMatched
}

// NodeGuard brackets the scan or splice of one node's object list: Enter
// before it, Exit after it, Exit even if the visitor panics. The parallel
// server passes a guard that locks interior (parent) nodes for the
// bracket — the paper's transient parent locking — and relies on the
// already-held region locks for leaves. A nil guard scans directly.
//
// The tree never hands the visitor to the guard, so a caller's visitor
// closure and everything it captures can stay on the caller's stack.
type NodeGuard interface {
	Enter(node int32, isLeaf bool)
	Exit(node int32, isLeaf bool)
}

// CollectBox visits every linked item whose box intersects the query box,
// walking only subtrees the box touches — the paper's move-execution
// traversal (§2.3 step 2). The visitor returns false to stop early.
// Items linked at the root are always scanned, "since all moves intersect
// with the entire world".
func (t *Tree) CollectBox(box geom.AABB, guard NodeGuard, visit func(*Item) bool, st *TraversalStats) {
	t.collect(0, box, guard, visit, st)
}

func (t *Tree) collect(ni int32, box geom.AABB, guard NodeGuard, visit func(*Item) bool, st *TraversalStats) bool {
	n := &t.nodes[ni]
	if st != nil {
		st.NodesVisited++
	}
	var cont bool
	if guard == nil {
		cont = n.scan(box, visit, st)
	} else {
		cont = n.scanGuarded(ni, guard, box, visit, st)
	}
	if !cont || n.IsLeaf() {
		return cont
	}
	side := n.Plane.SideBox(box)
	if side&geom.SideFront != 0 {
		if !t.collect(n.Children[0], box, guard, visit, st) {
			return false
		}
	}
	if side&geom.SideBack != 0 {
		if !t.collect(n.Children[1], box, guard, visit, st) {
			return false
		}
	}
	return true
}

// scanGuarded is scan inside guard's bracket for node ni. The bracket
// closes before collect descends, so at most one parent node is held.
func (n *Node) scanGuarded(ni int32, guard NodeGuard, box geom.AABB, visit func(*Item) bool, st *TraversalStats) bool {
	leaf := n.IsLeaf()
	guard.Enter(ni, leaf)
	defer guard.Exit(ni, leaf)
	return n.scan(box, visit, st)
}

// scan offers visit every item linked at n whose box intersects box and
// reports whether the visitor wants more.
func (n *Node) scan(box geom.AABB, visit func(*Item) bool, st *TraversalStats) bool {
	s := &n.sentinel
	for it := s.next; it != s; it = it.next {
		if st != nil {
			st.ItemsChecked++
		}
		if it.Box.Intersects(box) {
			if st != nil {
				st.ItemsMatched++
			}
			if !visit(it) {
				return false
			}
		}
	}
	return true
}

// LeavesTouching appends to buf the node indices of all leaves whose
// volumes intersect box, in ascending node-index order — the canonical
// lock-acquisition order that rules out cycles ("locking is always
// performed in the same order"). The returned slice aliases buf's array
// when capacity allows.
func (t *Tree) LeavesTouching(box geom.AABB, buf []int32) []int32 {
	return t.leavesTouching(0, box, buf)
}

func (t *Tree) leavesTouching(ni int32, box geom.AABB, buf []int32) []int32 {
	n := &t.nodes[ni]
	if n.IsLeaf() {
		return append(buf, ni)
	}
	side := n.Plane.SideBox(box)
	if side&geom.SideFront != 0 {
		buf = t.leavesTouching(n.Children[0], box, buf)
	}
	if side&geom.SideBack != 0 {
		buf = t.leavesTouching(n.Children[1], box, buf)
	}
	return buf
}

// LeafContaining returns the node index of the leaf containing point p.
// Points on division planes resolve to the front side.
func (t *Tree) LeafContaining(p geom.Vec3) int32 {
	ni := int32(0)
	for {
		n := &t.nodes[ni]
		if n.IsLeaf() {
			return ni
		}
		if n.Plane.SidePoint(p) == geom.SideFront {
			ni = n.Children[0]
		} else {
			ni = n.Children[1]
		}
	}
}

// TotalLinked returns the number of items linked anywhere in the tree.
func (t *Tree) TotalLinked() int {
	total := 0
	for i := range t.nodes {
		total += t.nodes[i].count
	}
	return total
}

// checkFinite guards against NaN boxes poisoning the tree; exposed via
// Link in debug builds only. Kept for tests.
func checkFinite(b geom.AABB) bool {
	return b.Min.IsFinite() && b.Max.IsFinite() &&
		!math.IsNaN(b.Min.X) && !math.IsNaN(b.Max.X)
}
