package server

import (
	"fmt"
	"math"
	"testing"

	"qserve/internal/transport"
)

// TestClientIDsSkipLiveAfterWrap: once the uint16 id counter wraps, a
// join must not take the id of a client that is still connected — it
// would overwrite that client's byID entry and strand it in ordered and
// byKey forever. Both ways the counter reaches the wrap are covered: a
// long-running session's 65 536th join, and a restore whose survivor
// holds id 65535.
func TestClientIDsSkipLiveAfterWrap(t *testing.T) {
	join := func(t *testing.T, tab *clientTable, name string) *client {
		t.Helper()
		c := &client{addr: transport.MemAddr(name)}
		if !tab.add(c) {
			t.Fatalf("join %s refused", name)
		}
		return c
	}
	t.Run("counter", func(t *testing.T) {
		tab := newClientTable(8)
		live := join(t, tab, "live") // id 0
		tab.nextID = math.MaxUint16
		var ids []uint16
		var joined []*client
		for i := 0; i < 3; i++ {
			c := join(t, tab, fmt.Sprint("j", i))
			ids = append(ids, c.id)
			joined = append(joined, c)
		}
		if want := []uint16{math.MaxUint16, 1, 2}; fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Fatalf("joins across the wrap got ids %v, want %v", ids, want)
		}
		for _, c := range joined {
			tab.remove(c)
		}
		if tab.lookupID(0) != live || tab.lookup(live.addr) != live || tab.count() != 1 {
			t.Fatal("the live client lost its table entries")
		}
		tab.remove(live)
		if tab.count() != 0 || len(tab.ordered) != 0 || len(tab.byKey) != 0 {
			t.Fatalf("table not empty after every client left: %d ids, %d ordered, %d addrs",
				tab.count(), len(tab.ordered), len(tab.byKey))
		}
	})
	t.Run("restore", func(t *testing.T) {
		tab := newClientTable(8)
		for _, id := range []uint16{0, math.MaxUint16} {
			if !tab.addRestored(&client{id: id, key: transport.ParseKey(fmt.Sprint("survivor", id))}) {
				t.Fatalf("survivor %d refused", id)
			}
		}
		if c := join(t, tab, "new"); c.id != 1 {
			t.Fatalf("first join after the restore got id %d, want 1 (0 and 65535 are survivors)", c.id)
		}
	})
}
