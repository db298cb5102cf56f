package sim

import (
	"sync/atomic"
	"testing"
)

func TestAdvanceOrdering(t *testing.T) {
	s := New(Config{Procs: 2})
	var order []int
	body := func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(int64(100 * (p.ID + 1))) // proc 0: +100, proc 1: +200
			order = append(order, p.ID)
		}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
	// Events (post-advance) occur at: p0: 100,200,300; p1: 200,400,600.
	// Ties (200) break by ID: p0 first.
	want := []int{0, 0, 1, 0, 1, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Procs()[0].Now() != 300 || s.Procs()[1].Now() != 600 {
		t.Errorf("clocks = %d, %d", s.Procs()[0].Now(), s.Procs()[1].Now())
	}
}

func TestLockMutualExclusionInVirtualTime(t *testing.T) {
	s := New(Config{Procs: 3})
	var l Lock
	type span struct{ from, to int64 }
	spans := make([]span, 3)
	body := func(p *Proc) {
		p.Advance(int64(p.ID) * 10) // stagger requests
		l.Lock(p)
		from := p.Now()
		p.Advance(100) // hold for 100ns of work
		to := p.Now()
		l.Unlock(p)
		spans[p.ID] = span{from, to}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
	// Hold intervals must not overlap.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			a, b := spans[i], spans[j]
			if a.from < b.to && b.from < a.to {
				t.Fatalf("overlapping holds: %v %v", a, b)
			}
		}
	}
	if l.Acquisitions != 3 || l.Contended != 2 {
		t.Errorf("acquisitions=%d contended=%d", l.Acquisitions, l.Contended)
	}
	if l.TotalWaitNs <= 0 {
		t.Error("no wait time accumulated despite contention")
	}
	if l.Held() {
		t.Error("lock still held after run")
	}
}

func TestLockGrantsInRequestOrder(t *testing.T) {
	s := New(Config{Procs: 3})
	var l Lock
	var grants []int
	body := func(p *Proc) {
		// Proc 0 takes the lock immediately and holds it long; procs 2
		// and 1 request at times 10 and 20 respectively — grant order
		// must be 2 then 1 (virtual request order), not host arrival.
		switch p.ID {
		case 0:
			l.Lock(p)
			p.Advance(1000)
			l.Unlock(p)
		case 1:
			p.Advance(20)
			l.Lock(p)
			grants = append(grants, 1)
			p.Advance(10)
			l.Unlock(p)
		case 2:
			p.Advance(10)
			l.Lock(p)
			grants = append(grants, 2)
			p.Advance(10)
			l.Unlock(p)
		}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
	if len(grants) != 2 || grants[0] != 2 || grants[1] != 1 {
		t.Fatalf("grant order = %v, want [2 1]", grants)
	}
}

func TestLockWaiterClockPulledToRelease(t *testing.T) {
	s := New(Config{Procs: 2})
	var l Lock
	var waiterClock int64
	body := func(p *Proc) {
		if p.ID == 0 {
			l.Lock(p)
			p.Advance(500)
			l.Unlock(p)
		} else {
			p.Advance(10)
			wait := l.Lock(p)
			waiterClock = p.Now()
			if wait != 490 {
				t.Errorf("wait = %d, want 490", wait)
			}
			l.Unlock(p)
		}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
	if waiterClock != 500 {
		t.Errorf("waiter acquired at %d, want 500", waiterClock)
	}
}

func TestUnlockNotHeldErrors(t *testing.T) {
	s := New(Config{Procs: 1})
	var l Lock
	err := s.Run(func(p *Proc) {
		l.Unlock(p)
		p.Advance(1) // give scheduler a chance to see the error
	})
	if err == nil {
		t.Error("foreign unlock not reported")
	}
}

func TestWaitWake(t *testing.T) {
	s := New(Config{Procs: 2})
	procs := s.Procs()
	var waited int64
	body := func(p *Proc) {
		if p.ID == 0 {
			waited = p.Wait()
			if p.Now() != 300 {
				t.Errorf("woken at %d", p.Now())
			}
		} else {
			p.Advance(300)
			s.Wake(procs[0], p.Now())
		}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
	if waited != 300 {
		t.Errorf("waited %d", waited)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(Config{Procs: 2})
	err := s.Run(func(p *Proc) {
		p.Wait() // everyone waits, nobody wakes
	})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestSMTPenalty(t *testing.T) {
	// Two contexts on one core, both computing: each advance costs x1.6.
	s := New(Config{Procs: 2, Cores: 1, SMTPenalty: 1.6})
	body := func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Advance(100)
		}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Procs() {
		if p.Now() != 4*160 {
			t.Errorf("proc %d clock = %d, want 640", p.ID, p.Now())
		}
	}

	// Separate cores: no penalty.
	s2 := New(Config{Procs: 2, Cores: 2, SMTPenalty: 1.6})
	if err := s2.Run(body); err != nil {
		t.Fatal(err)
	}
	for _, p := range s2.Procs() {
		if p.Now() != 400 {
			t.Errorf("separate-core proc clock = %d", p.Now())
		}
	}
}

func TestSMTIgnoresIdleSibling(t *testing.T) {
	s := New(Config{Procs: 2, Cores: 1, SMTPenalty: 2.0})
	body := func(p *Proc) {
		if p.ID == 0 {
			// Idle-wait far into the future, consuming no core.
			p.AdvanceTo(10000)
		} else {
			p.Advance(100)
			if p.Now() != 100 {
				t.Errorf("penalized despite idle sibling: clock=%d", p.Now())
			}
		}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
}

func TestRecvSemantics(t *testing.T) {
	s := New(Config{Procs: 1})
	src := &PeriodicSource{Start: 100, Period: 50, End: 220, Make: func(seq int64) any { return seq }}
	err := s.Run(func(p *Proc) {
		// Arrival at 100: blocking recv jumps the clock there.
		a, ok := p.Recv(src, 1000)
		if !ok || a.At != 100 || p.Now() != 100 || a.Payload.(int64) != 0 {
			t.Errorf("first recv: %+v now=%d", a, p.Now())
		}
		// Next arrival at 150: timeout 20 expires first.
		_, ok = p.Recv(src, 20)
		if ok || p.Now() != 120 {
			t.Errorf("timeout recv: ok=%v now=%d", ok, p.Now())
		}
		// Poll at 120: nothing queued yet.
		if _, ok := p.Poll(src); ok {
			t.Error("poll returned future arrival")
		}
		// Blocking: arrival at 150.
		a, ok = p.Recv(src, -1)
		if !ok || a.At != 150 || p.Now() != 150 {
			t.Errorf("second recv: %+v now=%d", a, p.Now())
		}
		// Advance past 200: the third arrival is queued; Poll gets it.
		p.Advance(100)
		a, ok = p.Poll(src)
		if !ok || a.At != 200 {
			t.Errorf("poll queued: %+v", a)
		}
		// Exhausted: timeout path.
		if _, ok := p.Recv(src, 30); ok {
			t.Error("recv on exhausted source succeeded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvForeverOnExhaustedSourceErrors(t *testing.T) {
	s := New(Config{Procs: 1})
	src := &PeriodicSource{Start: 0, Period: 10, End: 0}
	err := s.Run(func(p *Proc) {
		p.Recv(src, -1)
	})
	if err == nil {
		t.Error("blocking recv on empty source not reported")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(Config{Procs: 4, Cores: 2, SMTPenalty: 1.5})
		var l Lock
		body := func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Advance(int64(7 + p.ID*3))
				l.Lock(p)
				p.Advance(13)
				l.Unlock(p)
			}
		}
		if err := s.Run(body); err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 4)
		for i, p := range s.Procs() {
			out[i] = p.Now()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic clocks: %v vs %v", a, b)
		}
	}
}

// TestOnlyOneProcRunsAtOnce verifies the cooperative invariant that makes
// sharing game state safe.
func TestOnlyOneProcRunsAtOnce(t *testing.T) {
	s := New(Config{Procs: 8})
	var inside atomic.Int32
	var violated atomic.Bool
	body := func(p *Proc) {
		for i := 0; i < 200; i++ {
			if inside.Add(1) != 1 {
				violated.Store(true)
			}
			// Simulated "work" with no host-level yielding.
			x := 0
			for j := 0; j < 100; j++ {
				x += j
			}
			_ = x
			inside.Add(-1)
			p.Advance(10)
		}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
	if violated.Load() {
		t.Fatal("two procs executed concurrently")
	}
}

func BenchmarkAdvanceYield(b *testing.B) {
	s := New(Config{Procs: 2})
	n := b.N
	body := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(10)
		}
	}
	b.ResetTimer()
	if err := s.Run(body); err != nil {
		b.Fatal(err)
	}
}

func TestBodyPanicSurfacesAsError(t *testing.T) {
	s := New(Config{Procs: 2})
	err := s.Run(func(p *Proc) {
		if p.ID == 1 {
			p.Advance(10)
			panic("boom")
		}
		p.Advance(100)
	})
	if err == nil {
		t.Fatal("panic in proc body not surfaced")
	}
}

func TestTryLockRefusesWithoutQueueing(t *testing.T) {
	s := New(Config{Procs: 2})
	var l Lock
	results := make([]bool, 2)
	waits := make([]int64, 2)
	body := func(p *Proc) {
		if p.ID == 0 {
			l.Lock(p)
			p.Advance(100)
			l.Unlock(p)
			return
		}
		// Proc 1 probes at t=50, mid-hold: refused without advancing.
		p.Advance(50)
		before := p.Now()
		results[1] = l.TryLock(p)
		waits[1] = p.Now() - before
		// Probe again after the release point.
		p.AdvanceTo(200)
		results[0] = l.TryLock(p)
		if results[0] {
			l.Unlock(p)
		}
	}
	if err := s.Run(body); err != nil {
		t.Fatal(err)
	}
	if results[1] {
		t.Error("TryLock acquired a held lock")
	}
	if waits[1] != 0 {
		t.Errorf("refused TryLock advanced the clock by %d ns; refusal must not queue", waits[1])
	}
	if !results[0] {
		t.Error("TryLock failed on a free lock")
	}
	if l.Contended != 1 {
		t.Errorf("Contended = %d, want the single refusal", l.Contended)
	}
	if l.Acquisitions != 2 {
		t.Errorf("Acquisitions = %d, want lock + successful probe", l.Acquisitions)
	}
	if l.Held() {
		t.Error("lock still held after run")
	}
}
