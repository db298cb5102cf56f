package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// applyDeltaMap is ApplyDelta as a map of entities re-sorted at the end:
// the definition the merge must reproduce on every delta list it accepts.
func applyDeltaMap(prev []EntityState, deltas []EntityDelta) ([]EntityState, error) {
	byID := make(map[uint16]EntityState, len(prev)+len(deltas))
	for _, s := range prev {
		byID[s.ID] = s
	}
	for _, d := range deltas {
		switch {
		case d.Bits&DRemove != 0:
			delete(byID, d.ID)
		case d.Bits&DNew != 0:
			s := d.State
			s.ID = d.ID
			byID[d.ID] = s
		default:
			s, ok := byID[d.ID]
			if !ok {
				return nil, fmt.Errorf("protocol: delta for unknown entity %d", d.ID)
			}
			if d.Bits&DOrigin != 0 {
				s.X, s.Y, s.Z = d.State.X, d.State.Y, d.State.Z
			}
			if d.Bits&DYaw != 0 {
				s.Yaw = d.State.Yaw
			}
			if d.Bits&DFrame != 0 {
				s.Frame = d.State.Frame
			}
			if d.Bits&DEffects != 0 {
				s.Effects = d.State.Effects
			}
			if d.Bits&DClass != 0 {
				s.Class = d.State.Class
			}
			byID[d.ID] = s
		}
	}
	out := make([]EntityState, 0, len(byID))
	for _, s := range byID {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}

// ascending reports whether the delta list is strictly ID-ascending.
func ascending(deltas []EntityDelta) bool {
	for k := 1; k < len(deltas); k++ {
		if deltas[k].ID <= deltas[k-1].ID {
			return false
		}
	}
	return true
}

// checkApplyDelta fails t unless ApplyDelta agrees with the map oracle:
// the same list or the same refusal on a strictly ascending delta list,
// and a refusal on any other.
func checkApplyDelta(t *testing.T, prev []EntityState, deltas []EntityDelta) {
	t.Helper()
	got, err := ApplyDelta(prev, deltas)
	if !ascending(deltas) {
		if err == nil {
			t.Fatalf("out-of-order deltas accepted:\nprev  %v\ndelta %v", prev, deltas)
		}
		return
	}
	want, wantErr := applyDeltaMap(prev, deltas)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("error %v, oracle %v:\nprev  %v\ndelta %v", err, wantErr, prev, deltas)
	}
	if err == nil && len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("\nprev   %v\ndelta  %v\ngot    %v\noracle %v", prev, deltas, got, want)
	}
}

// randomDeltas draws a delta list against prev: updates, removals and
// re-announcements of its entities, and removals, arrivals and stray
// updates of others, with every combination of bits. One list in eight
// has two entries swapped, so most lists are ascending and some not.
func randomDeltas(r *rand.Rand, prev []EntityState) []EntityDelta {
	var ids []uint16
	for _, s := range prev {
		if r.Intn(3) == 0 {
			ids = append(ids, s.ID)
		}
	}
	for i := r.Intn(6); i > 0; i-- {
		ids = append(ids, uint16(r.Intn(250)))
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var out []EntityDelta
	for k, id := range ids {
		if k > 0 && id == ids[k-1] {
			continue
		}
		bits := uint8(r.Intn(1 << 7))
		if r.Intn(2) == 0 {
			bits &^= DRemove | DNew
		}
		out = append(out, EntityDelta{ID: id, Bits: bits, State: randomEntityState(r, uint16(r.Intn(3)))})
	}
	if len(out) > 1 && r.Intn(8) == 0 {
		k := r.Intn(len(out) - 1)
		out[k], out[k+1] = out[k+1], out[k]
	}
	return out
}

// TestApplyDeltaMatchesMap: on random entity tables and delta lists the
// merge returns what the map oracle returns, or refuses what it refuses.
func TestApplyDeltaMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	merged, refused := 0, 0
	for trial := 0; trial < 20000; trial++ {
		prev := randomEntityList(r)
		deltas := randomDeltas(r, prev)
		checkApplyDelta(t, prev, deltas)
		if _, err := ApplyDelta(prev, deltas); err != nil {
			refused++
		} else {
			merged++
		}
	}
	if merged < 5000 || refused < 1000 {
		t.Errorf("unbalanced corpus: %d merged, %d refused", merged, refused)
	}
}

// TestApplyDeltaRefusesOutOfOrder: a delta list that repeats or goes
// back on an entity ID is refused, not merged.
func TestApplyDeltaRefusesOutOfOrder(t *testing.T) {
	prev := []EntityState{{ID: 1}, {ID: 2}, {ID: 3}}
	for _, deltas := range [][]EntityDelta{
		{{ID: 3, Bits: DYaw}, {ID: 1, Bits: DYaw}},
		{{ID: 2, Bits: DYaw}, {ID: 2, Bits: DFrame}},
		{{ID: 2, Bits: DRemove}, {ID: 2, Bits: DNew}},
	} {
		if got, err := ApplyDelta(prev, deltas); err == nil {
			t.Errorf("deltas %v accepted, got %v", deltas, got)
		}
	}
}

// TestApplyDeltaAllocatesResultOnly: the merge allocates the result and
// nothing else.
func TestApplyDeltaAllocatesResultOnly(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var prev []EntityState
	for id := uint16(1); id <= 256; id++ {
		prev = append(prev, randomEntityState(r, id))
	}
	cur := append([]EntityState(nil), prev[8:]...)
	for i := range cur {
		cur[i].X++
	}
	cur = append(cur, randomEntityState(r, 300))
	deltas := DeltaEntities(prev, cur)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ApplyDelta(prev, deltas); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("ApplyDelta allocates %.1f objects, want 1 (the result)", allocs)
	}
}

// deltaCase builds an entity table and a delta list from fuzz input.
// The table is strictly ID-ascending, as ApplyDelta requires; the delta
// list's IDs step by -1..5, so it may repeat or go back.
func deltaCase(data []byte) (prev []EntityState, deltas []EntityDelta) {
	next := func() uint8 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	state := func(id uint16) EntityState {
		return EntityState{ID: id, Class: next() % 5, X: int16(next()), Yaw: next(), Frame: next() % 16, Effects: next() % 4}
	}
	id := uint16(0)
	for n := next() % 32; n > 0; n-- {
		id += 1 + uint16(next()%4)
		prev = append(prev, state(id))
	}
	id = 0
	for n := next() % 32; n > 0; n-- {
		id += uint16(next()%7) - 1
		deltas = append(deltas, EntityDelta{ID: id, Bits: next() & 0x7F, State: state(uint16(next()))})
	}
	return prev, deltas
}

// FuzzApplyDelta lets the fuzzer look for a table and delta list on which
// the merge and the map oracle disagree.
func FuzzApplyDelta(f *testing.F) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+r.Intn(256))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prev, deltas := deltaCase(data)
		checkApplyDelta(t, prev, deltas)
	})
}
