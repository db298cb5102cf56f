package entity

import (
	"math/rand"
	"testing"

	"qserve/internal/areanode"
	"qserve/internal/geom"
)

func TestAllocBasics(t *testing.T) {
	tb := NewTable(8)
	if tb.Capacity() != 8 || tb.Active() != 0 {
		t.Fatalf("fresh table: cap=%d active=%d", tb.Capacity(), tb.Active())
	}
	e := tb.Alloc(ClassPlayer)
	if e == nil || !e.Active || e.Class != ClassPlayer {
		t.Fatalf("alloc = %+v", e)
	}
	if e.ID != 0 || e.ItemSpawn != -1 || e.RoomID != -1 || e.Owner != None {
		t.Errorf("alloc defaults wrong: %+v", e)
	}
	if tb.Active() != 1 || tb.HighWater() != 1 {
		t.Errorf("active=%d highwater=%d", tb.Active(), tb.HighWater())
	}
}

func TestAllocExhaustion(t *testing.T) {
	tb := NewTable(3)
	for i := 0; i < 3; i++ {
		if tb.Alloc(ClassItem) == nil {
			t.Fatalf("alloc %d failed early", i)
		}
	}
	if tb.Alloc(ClassItem) != nil {
		t.Error("alloc beyond capacity succeeded")
	}
	tb.Free(1)
	e := tb.Alloc(ClassProjectile)
	if e == nil || e.ID != 1 {
		t.Errorf("freed slot not reused: %+v", e)
	}
}

func TestFreeResetsAndIgnoresDouble(t *testing.T) {
	tb := NewTable(4)
	e := tb.Alloc(ClassPlayer)
	e.Health = 100
	id := e.ID
	tb.Free(id)
	if e.Active || e.Class != ClassNone {
		t.Errorf("free did not deactivate: %+v", e)
	}
	if tb.Active() != 0 {
		t.Errorf("active = %d", tb.Active())
	}
	tb.Free(id)     // double free: no-op
	tb.Free(ID(99)) // out of range: no-op
	tb.Free(None)   // null: no-op
	if tb.Active() != 0 || len(tb.free) != 1 {
		t.Errorf("double free corrupted free list: active=%d free=%d", tb.Active(), len(tb.free))
	}
}

func TestFreeLinkedPanics(t *testing.T) {
	tb := NewTable(4)
	e := tb.Alloc(ClassItem)
	e.Origin = geom.V(50, 50, 50)
	e.Mins, e.Maxs = ItemMins, ItemMaxs
	tr := areanode.NewTree(geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 100)), 1)
	tr.Link(&e.Link, e.AbsBox())
	defer func() {
		if recover() == nil {
			t.Error("freeing a linked entity did not panic")
		}
	}()
	tb.Free(e.ID)
}

func TestGetOutOfRange(t *testing.T) {
	tb := NewTable(2)
	if tb.Get(-1) != nil || tb.Get(2) != nil || tb.Get(None) != nil {
		t.Error("out-of-range Get returned non-nil")
	}
}

func TestForEachAndClassQueries(t *testing.T) {
	tb := NewTable(16)
	for i := 0; i < 4; i++ {
		tb.Alloc(ClassPlayer)
	}
	for i := 0; i < 3; i++ {
		tb.Alloc(ClassItem)
	}
	p := tb.Alloc(ClassProjectile)
	tb.Free(p.ID)

	var order []ID
	tb.ForEach(func(e *Entity) { order = append(order, e.ID) })
	if len(order) != 7 {
		t.Fatalf("ForEach visited %d, want 7", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatal("ForEach not in ID order")
		}
	}
	if got := tb.CountClass(ClassPlayer); got != 4 {
		t.Errorf("CountClass(player) = %d", got)
	}
	if got := tb.CountClass(ClassProjectile); got != 0 {
		t.Errorf("CountClass(projectile) = %d", got)
	}
	n := 0
	tb.ForEachClass(ClassItem, func(e *Entity) {
		if e.Class != ClassItem {
			t.Errorf("wrong class in ForEachClass: %v", e.Class)
		}
		n++
	})
	if n != 3 {
		t.Errorf("ForEachClass visited %d", n)
	}
}

func TestChurnKeepsInvariants(t *testing.T) {
	tb := NewTable(64)
	r := rand.New(rand.NewSource(3))
	live := map[ID]bool{}
	for op := 0; op < 10000; op++ {
		if r.Intn(2) == 0 {
			if e := tb.Alloc(Class(1 + r.Intn(4))); e != nil {
				if live[e.ID] {
					t.Fatalf("alloc returned live ID %d", e.ID)
				}
				live[e.ID] = true
			}
		} else if len(live) > 0 {
			for id := range live {
				tb.Free(id)
				delete(live, id)
				break
			}
		}
		if tb.Active() != len(live) {
			t.Fatalf("active=%d tracked=%d", tb.Active(), len(live))
		}
	}
}

func TestEntityGeometryHelpers(t *testing.T) {
	e := Entity{
		Origin: geom.V(100, 200, 50),
		Mins:   PlayerMins,
		Maxs:   PlayerMaxs,
	}
	box := e.AbsBox()
	if box.Min != geom.V(84, 184, 26) || box.Max != geom.V(116, 216, 82) {
		t.Errorf("AbsBox = %v", box)
	}
	if he := e.HalfExtents(); he != geom.V(16, 16, 28) {
		t.Errorf("HalfExtents = %v", he)
	}
	if off := e.CenterOffset(); off != geom.V(0, 0, 4) {
		t.Errorf("CenterOffset = %v", off)
	}
	if c := e.HullCenter(); c != geom.V(100, 200, 54) {
		t.Errorf("HullCenter = %v", c)
	}
}

func TestAliveAndSolid(t *testing.T) {
	e := Entity{Active: true, Class: ClassPlayer, Health: 100}
	if !e.Alive() || !e.IsSolidToMovement() {
		t.Error("healthy player should be alive and solid")
	}
	e.Health = 0
	if e.Alive() || e.IsSolidToMovement() {
		t.Error("dead player should be neither alive nor solid")
	}
	item := Entity{Active: true, Class: ClassItem, Health: 1}
	if item.Alive() || item.IsSolidToMovement() {
		t.Error("items are not alive and not solid")
	}
}

func TestClassString(t *testing.T) {
	for c := ClassNone; c <= ClassCorpse; c++ {
		if c.String() == "" || c.String() == "invalid" {
			t.Errorf("class %d stringer broken: %q", c, c.String())
		}
	}
	if Class(99).String() != "invalid" {
		t.Error("unknown class stringer")
	}
}

func TestNewTablePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTable(0) did not panic")
		}
	}()
	NewTable(0)
}

func TestChunkedPointersStable(t *testing.T) {
	tb := NewTable(2048)
	first := tb.Alloc(ClassPlayer)
	first.Health = 42
	var ptrs []*Entity
	for e := first; e != nil; e = tb.Alloc(ClassItem) {
		ptrs = append(ptrs, e)
	}
	if len(ptrs) != 2048 || tb.HighWater() != 2048 {
		t.Fatalf("filled %d slots, high water %d; want 2048", len(ptrs), tb.HighWater())
	}
	for i, p := range ptrs {
		if got := tb.Get(ID(i)); got != p {
			t.Fatalf("Get(%d) = %p, Alloc returned %p", i, got, p)
		}
	}
	if first.Health != 42 || tb.Get(0).Health != 42 {
		t.Error("slot 0 lost its state while the table grew")
	}
}

func TestChunkedGetUnusedSlots(t *testing.T) {
	tb := NewTable(200)
	for i := 0; i < 3; i++ {
		tb.Alloc(ClassItem)
	}
	for _, id := range []ID{3, 63, 64, 130, 199} {
		if e := tb.Get(id); e != nil && e.Active {
			t.Errorf("Get(%d) on a never-used slot returned an active entity", id)
		}
	}
	for _, id := range []ID{-1, None, 200, 256, 4096} {
		if tb.Get(id) != nil {
			t.Errorf("Get(%d) out of range returned non-nil", id)
		}
	}
}

func TestChunkedOddCapacityFillsExactly(t *testing.T) {
	tb := NewTable(100)
	for i := 0; i < 100; i++ {
		e := tb.Alloc(ClassItem)
		if e == nil || e.ID != ID(i) {
			t.Fatalf("alloc %d = %+v", i, e)
		}
	}
	if tb.Alloc(ClassItem) != nil {
		t.Error("alloc past capacity 100 succeeded")
	}
	if tb.Get(100) != nil || tb.Get(127) != nil {
		t.Error("Get past capacity 100 returned a slot of the last chunk's padding")
	}
	if tb.Capacity() != 100 {
		t.Errorf("Capacity = %d", tb.Capacity())
	}
}

// TestChunkedRestoreAcrossBoundary rebuilds a table whose live and free
// slots straddle chunk boundaries the way checkpoint restore does:
// Reset, Materialize out of order, SetFreeState — then checks the free
// list hands IDs out in the checkpointed order.
func TestChunkedRestoreAcrossBoundary(t *testing.T) {
	tb := NewTable(256)
	for i := 0; i < 10; i++ {
		tb.Alloc(ClassItem)
	}
	tb.Reset()
	if tb.HighWater() != 0 || tb.Active() != 0 || len(tb.ActiveIDs()) != 0 {
		t.Fatalf("reset: high=%d active=%d", tb.HighWater(), tb.Active())
	}
	for _, id := range []ID{130, 5, 64, 63} {
		if tb.Materialize(id) == nil {
			t.Fatalf("Materialize(%d) failed", id)
		}
	}
	if tb.Materialize(64) != nil {
		t.Error("Materialize of an active slot succeeded")
	}
	if tb.Materialize(256) != nil {
		t.Error("Materialize past capacity succeeded")
	}
	if tb.HighWater() != 131 {
		t.Fatalf("high water = %d, want 131", tb.HighWater())
	}
	// 131 slots below high water: 4 active, the rest free in stack order
	// (the last element pops first).
	var free []ID
	for id := ID(0); id < 131; id++ {
		switch id {
		case 5, 63, 64, 130:
		default:
			free = append(free, id)
		}
	}
	if err := tb.SetFreeState(append([]ID{135}, free[1:]...), 131); err == nil {
		t.Fatal("SetFreeState accepted a free slot past high water")
	}
	if err := tb.SetFreeState(append([]ID{64}, free[1:]...), 131); err == nil {
		t.Fatal("SetFreeState accepted an active slot in the free list")
	}
	if err := tb.SetFreeState(free, 140); err == nil {
		t.Fatal("SetFreeState accepted a free list that does not tile high water")
	}
	if err := tb.SetFreeState(free, 131); err != nil {
		t.Fatal(err)
	}
	for i := len(free) - 1; i >= len(free)-3; i-- {
		if e := tb.Alloc(ClassProjectile); e == nil || e.ID != free[i] {
			t.Fatalf("alloc after restore = %+v, want ID %d", e, free[i])
		}
	}
	for id := ID(0); id < 131; id++ {
		if tb.Get(id) == nil {
			t.Fatalf("slot %d below high water has no chunk", id)
		}
	}
	want := []ID{5, 63, 64, 127, 128, 129, 130}
	if got := tb.ActiveIDs(); len(got) != len(want) {
		t.Fatalf("active IDs = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("active IDs = %v, want %v", got, want)
			}
		}
	}
}

func TestChunkedResetKeepsPointers(t *testing.T) {
	tb := NewTable(128)
	var last *Entity
	for i := 0; i < 70; i++ {
		last = tb.Alloc(ClassItem)
	}
	tb.Reset()
	if last.Active || last.ID != 69 {
		t.Errorf("reset slot = %+v, want zeroed ID 69", last)
	}
	if e := tb.Materialize(69); e != last {
		t.Error("Materialize after Reset moved the slot")
	}
}

func TestFreeListReuseOrder(t *testing.T) {
	tb := NewTable(200)
	for i := 0; i < 150; i++ {
		tb.Alloc(ClassItem)
	}
	for _, id := range []ID{3, 140, 64, 63} {
		tb.Free(id)
	}
	for _, want := range []ID{63, 64, 140, 3, 150, 151} {
		if e := tb.Alloc(ClassCorpse); e == nil || e.ID != want {
			t.Fatalf("alloc = %+v, want ID %d", e, want)
		}
	}
}

// TestSetFreeStateGrowsChunks covers a checkpoint whose free slots run
// past the last active entity's chunk: the recycled IDs must still have
// storage.
func TestSetFreeStateGrowsChunks(t *testing.T) {
	tb := NewTable(256)
	if tb.Materialize(2) == nil {
		t.Fatal("Materialize(2) failed")
	}
	var free []ID
	for id := ID(0); id < 100; id++ {
		if id != 2 {
			free = append(free, id)
		}
	}
	if err := tb.SetFreeState(free, 100); err != nil {
		t.Fatal(err)
	}
	if e := tb.Alloc(ClassProjectile); e == nil || e.ID != 99 || tb.Get(99) != e {
		t.Fatalf("alloc = %+v, want ID 99", e)
	}
}
