package sim

// Arrival is one queued datagram at a simulated port: the virtual time it
// becomes receivable and an opaque payload.
type Arrival struct {
	At      int64
	Payload any
}

// Source supplies a port's arrival stream in nondecreasing time order.
type Source interface {
	// Peek returns the next arrival time, or Infinity when exhausted.
	Peek() int64
	// Pop removes and returns the next arrival. Only valid when Peek
	// returned a finite time.
	Pop() Arrival
}

// Recv models the select(2) call on a port: block up to timeout virtual
// ns for an arrival. It returns the arrival and true, or false on
// timeout. The context's clock advances to the arrival (or timeout) and
// the span is idle time (no SMT pressure on the sibling).
//
// Recv tolerates sources whose contents change while the context sleeps
// (other contexts may migrate streams between ports, as the dynamic
// assignment policy does): after every clock advance it re-examines the
// source, and it only pops an arrival that is due at the current instant,
// with no yield between the check and the pop.
func (p *Proc) Recv(src Source, timeout int64) (Arrival, bool) {
	deadline := int64(Infinity)
	if timeout >= 0 {
		deadline = p.clock + timeout
	}
	for {
		next := src.Peek()
		if next != Infinity && next <= p.clock {
			return src.Pop(), true
		}
		if timeout < 0 && next == Infinity {
			p.sim.err = errRecvForever(p.ID)
			p.yieldTo(stateBlockedWait)
			return Arrival{}, false
		}
		wake := deadline
		if next < wake {
			wake = next
		}
		if wake <= p.clock {
			return Arrival{}, false // deadline passed with nothing queued
		}
		p.AdvanceTo(wake) // may yield; loop re-checks the source
	}
}

// Poll receives an already-queued arrival (time <= now) without waiting,
// modelling the non-blocking drain of a request queue.
func (p *Proc) Poll(src Source) (Arrival, bool) {
	if t := src.Peek(); t != Infinity && t <= p.clock {
		return src.Pop(), true
	}
	return Arrival{}, false
}

type errRecvForever int

func (e errRecvForever) Error() string {
	return "sim: blocking receive on an exhausted source would never return"
}

// PeriodicSource emits one arrival every Period ns starting at Start,
// until (not including) End — one automatic client's request stream. The
// payload passed to Make receives the sequence index.
type PeriodicSource struct {
	Start  int64
	Period int64
	End    int64
	Make   func(seq int64) any

	seq int64
}

// Peek implements Source.
func (s *PeriodicSource) Peek() int64 {
	t := s.Start + s.seq*s.Period
	if t >= s.End {
		return Infinity
	}
	return t
}

// Pop implements Source.
func (s *PeriodicSource) Pop() Arrival {
	t := s.Start + s.seq*s.Period
	var payload any
	if s.Make != nil {
		payload = s.Make(s.seq)
	}
	s.seq++
	return Arrival{At: t, Payload: payload}
}
