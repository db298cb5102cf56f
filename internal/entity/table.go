package entity

import (
	"fmt"
	"sort"
)

// chunkBits sizes the table's allocation unit: slots are grouped in
// chunks of 1<<chunkBits entities, and a chunk is allocated the first
// time one of its IDs is used.
const (
	chunkBits = 6
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// Table is a fixed-capacity entity arena with free-list reuse, mirroring
// the engine's edict array. Storage is a fixed directory of 64-slot
// chunks, each allocated on first use, so a table pays only for the
// slots below its high-water mark: an idle match's 2048-slot table holds
// its map's items and doors, not 2048 entities. Chunks never move, so
// pointers returned by Get and Alloc remain valid for the table's
// lifetime.
//
// The table itself is not synchronized: allocation and freeing happen in
// phases where the executing thread has exclusive access (world physics
// runs on the master thread; spawning during request processing happens
// under the region locks covering the affected area, with ID allocation
// serialized by the caller). The active-ID index below is maintained
// under the same discipline, so readers ordered after an Alloc/Free by
// the frame barriers always see a consistent list.
type Table struct {
	// chunks is the fixed directory, ceil(capacity/64) entries long.
	// Invariant: every chunk holding an ID below highWater is allocated,
	// so only IDs at or past the high-water mark can land in a nil chunk.
	chunks   []*[chunkSize]Entity
	capacity int
	free     []ID
	// actIDs is the live entity IDs in ascending order — the iteration
	// index ForEach/Range/ActiveIDs walk, so sparse tables never pay for
	// free-list holes up to the high-water mark. Preallocated to capacity
	// so maintenance never allocates.
	actIDs []ID
	active int
	// highWater is one past the largest ID ever allocated, bounding scans.
	highWater int
}

// NewTable creates a table with the given capacity. No entity storage
// is allocated until the first Alloc or Materialize.
func NewTable(capacity int) *Table {
	if capacity <= 0 {
		panic(fmt.Sprintf("entity: capacity %d must be positive", capacity))
	}
	return &Table{
		chunks:   make([]*[chunkSize]Entity, (capacity+chunkMask)>>chunkBits),
		capacity: capacity,
		actIDs:   make([]ID, 0, capacity),
	}
}

// at returns the slot for an ID known to be below the high-water mark.
func (t *Table) at(id ID) *Entity { return &t.chunks[id>>chunkBits][id&chunkMask] }

// grow allocates every missing chunk holding an ID below n, restoring
// the chunk invariant before the high-water mark is raised to n.
func (t *Table) grow(n int) {
	for c := t.highWater >> chunkBits; c<<chunkBits < n; c++ {
		if t.chunks[c] == nil {
			t.chunks[c] = new([chunkSize]Entity)
		}
	}
}

// Capacity returns the table's fixed capacity.
func (t *Table) Capacity() int { return t.capacity }

// Active returns the number of live entities.
func (t *Table) Active() int { return t.active }

// HighWater returns one past the largest ID ever allocated.
func (t *Table) HighWater() int { return t.highWater }

// Alloc returns a fresh entity of the given class, reusing freed slots
// first. It returns nil when the table is full.
func (t *Table) Alloc(class Class) *Entity {
	var id ID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if t.highWater >= t.capacity {
			return nil
		}
		id = ID(t.highWater)
		t.grow(t.highWater + 1)
		t.highWater++
	}
	e := t.at(id)
	*e = Entity{
		ID:        id,
		Class:     class,
		Active:    true,
		ItemSpawn: -1,
		RoomID:    -1,
		Owner:     None,
		// Snapshot eligibility is a property of the class and link state,
		// maintained here and at link/unlink time instead of being
		// re-derived per client per frame: teleporters are static map
		// triggers and never appear in snapshots; items become eligible
		// when linked (an unlinked item is taken, awaiting respawn).
		SnapEligible: class != ClassTeleporter && class != ClassItem,
	}
	t.insertActive(id)
	t.active++
	return e
}

// Free returns an entity slot to the free list. The caller must have
// unlinked it from the areanode tree first; Free panics on a still-linked
// entity because a dangling spatial link is unrecoverable corruption.
func (t *Table) Free(id ID) {
	e := t.Get(id)
	if e == nil || !e.Active {
		return
	}
	if e.Link.Linked() {
		panic(fmt.Sprintf("entity: freeing linked entity %d (%v)", id, e.Class))
	}
	e.Active = false
	e.Class = ClassNone
	e.SnapEligible = false
	t.free = append(t.free, id)
	t.removeActive(id)
	t.active--
}

// insertActive adds id to the sorted active index. Fresh high-water IDs
// append in O(1); free-list reuse inserts by binary search.
func (t *Table) insertActive(id ID) {
	ids := t.actIDs
	if n := len(ids); n == 0 || ids[n-1] < id {
		t.actIDs = append(ids, id)
		return
	}
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= id })
	t.actIDs = append(ids, 0)
	copy(t.actIDs[i+1:], t.actIDs[i:])
	t.actIDs[i] = id
}

// removeActive deletes id from the sorted active index.
func (t *Table) removeActive(id ID) {
	ids := t.actIDs
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= id })
	if i >= len(ids) || ids[i] != id {
		return
	}
	copy(ids[i:], ids[i+1:])
	t.actIDs = ids[:len(ids)-1]
}

// FreeList returns the free-list slots in stack order (the next Alloc
// pops the last element). The slice is the table's internal state:
// callers must not modify it, and it is valid only until the next Alloc
// or Free. Checkpointing serializes it so a restored table hands out
// recycled IDs in exactly the order the original would have.
func (t *Table) FreeList() []ID { return t.free }

// Reset clears every slot, the free list, and the high-water mark,
// returning the table to its just-constructed state; allocated chunks
// are kept (zeroed), so earlier pointers stay valid. Restore-only: the
// caller must have unlinked every entity first (a linked entity here is
// the same unrecoverable corruption Free panics on).
func (t *Table) Reset() {
	for i := 0; i < t.highWater; i++ {
		e := t.at(ID(i))
		if e.Link.Linked() {
			panic(fmt.Sprintf("entity: resetting table with linked entity %d (%v)", i, e.Class))
		}
		*e = Entity{ID: ID(i)}
	}
	t.free = t.free[:0]
	t.actIDs = t.actIDs[:0]
	t.active = 0
	t.highWater = 0
}

// Materialize activates the exact slot id — the restore-path counterpart
// of Alloc, which picks the slot itself. The slot's fields are zeroed
// (the caller fills them from a checkpoint record); the high-water mark
// grows to cover id. It returns nil when id is out of range or the slot
// is already active.
func (t *Table) Materialize(id ID) *Entity {
	if id < 0 || int(id) >= t.capacity {
		return nil
	}
	if int(id) >= t.highWater {
		t.grow(int(id) + 1)
		t.highWater = int(id) + 1
	}
	e := t.at(id)
	if e.Active {
		return nil
	}
	*e = Entity{ID: id, Active: true}
	t.insertActive(id)
	t.active++
	return e
}

// SetFreeState installs a checkpointed free list (in stack order) and
// high-water mark after the active entities have been materialized. It
// validates that the two exactly tile the sub-high-water slots: every
// inactive slot below highWater appears in free once, no active slot
// does, and nothing points past highWater. Any violation leaves the
// table untouched and returns an error — a corrupt checkpoint must not
// half-apply.
func (t *Table) SetFreeState(free []ID, highWater int) error {
	if highWater < t.highWater {
		return fmt.Errorf("entity: free-state high water %d below materialized high water %d", highWater, t.highWater)
	}
	if highWater > t.capacity {
		return fmt.Errorf("entity: free-state high water %d exceeds capacity %d", highWater, t.capacity)
	}
	if t.active+len(free) != highWater {
		return fmt.Errorf("entity: %d active + %d free does not tile %d slots", t.active, len(free), highWater)
	}
	seen := make(map[ID]bool, len(free))
	for _, id := range free {
		if id < 0 || int(id) >= highWater {
			return fmt.Errorf("entity: free slot %d outside high water %d", id, highWater)
		}
		if e := t.Get(id); e != nil && e.Active {
			return fmt.Errorf("entity: free slot %d is active", id)
		}
		if seen[id] {
			return fmt.Errorf("entity: free slot %d listed twice", id)
		}
		seen[id] = true
	}
	t.free = append(t.free[:0], free...)
	t.grow(highWater)
	t.highWater = highWater
	return nil
}

// Get returns the entity with the given ID, or nil for out-of-range IDs
// and for IDs whose chunk was never allocated (only possible at or past
// the high-water mark). The result may be inactive; callers check Active
// when it matters.
func (t *Table) Get(id ID) *Entity {
	if id < 0 || int(id) >= t.capacity {
		return nil
	}
	c := t.chunks[id>>chunkBits]
	if c == nil {
		return nil
	}
	return &c[id&chunkMask]
}

// ActiveIDs returns the live entity IDs in ascending order. The slice is
// the table's internal index: callers must not modify it, and it is valid
// only until the next Alloc or Free — a loop that may allocate or free
// mid-walk (world physics) copies it into a scratch slice first.
func (t *Table) ActiveIDs() []ID { return t.actIDs }

// Range calls fn for every active entity in ID order until fn returns
// false. fn must not allocate or free entities; use a copy of ActiveIDs
// for mutating walks.
func (t *Table) Range(fn func(*Entity) bool) {
	for _, id := range t.actIDs {
		if !fn(t.at(id)) {
			return
		}
	}
}

// ForEach calls fn for every active entity in ID order. fn must not
// allocate or free entities.
func (t *Table) ForEach(fn func(*Entity)) {
	for _, id := range t.actIDs {
		fn(t.at(id))
	}
}

// ForEachClass calls fn for every active entity of the given class, in ID
// order. fn must not allocate or free entities.
func (t *Table) ForEachClass(class Class, fn func(*Entity)) {
	for _, id := range t.actIDs {
		if e := t.at(id); e.Class == class {
			fn(e)
		}
	}
}

// CountClass returns the number of active entities of the given class.
func (t *Table) CountClass(class Class) int {
	n := 0
	for _, id := range t.actIDs {
		if t.at(id).Class == class {
			n++
		}
	}
	return n
}
