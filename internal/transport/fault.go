package transport

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig sets the per-datagram fault rates of a FaultConn. All
// probabilities are independent per datagram; a datagram may be both
// corrupted and duplicated. The zero value injects nothing.
type FaultConfig struct {
	// Seed makes the fault stream deterministic.
	Seed int64
	// DropProb silently discards the datagram.
	DropProb float64
	// DupProb transmits the datagram twice.
	DupProb float64
	// ReorderProb holds the datagram back and transmits it after the
	// next one, swapping adjacent datagrams.
	ReorderProb float64
	// CorruptProb flips one random bit of the payload.
	CorruptProb float64
	// TruncateProb cuts the payload at a random length.
	TruncateProb float64
	// DelayProb delays the datagram by Delay.
	DelayProb float64
	// Delay is the added latency for delayed datagrams.
	Delay time.Duration
}

// active reports whether any fault can fire.
func (c *FaultConfig) active() bool {
	return c.DropProb > 0 || c.DupProb > 0 || c.ReorderProb > 0 ||
		c.CorruptProb > 0 || c.TruncateProb > 0 || c.DelayProb > 0
}

// FaultStats counts injected faults since creation.
type FaultStats struct {
	Dropped, Duplicated, Reordered, Corrupted, Truncated, Delayed int64
}

// FaultConn wraps a Conn with a deterministic, seedable fault injector:
// datagrams passing through are dropped, duplicated, reordered, delayed,
// truncated, or bit-flipped per the configured rates. Send-side faults
// cover the full set; Recv applies drop and corruption (the inbound
// faults a wrapped peer cannot inject). Rates are runtime-settable via
// SetConfig, so a test can run a chaos phase and then settle with a
// perfect link.
//
// The non-faulty fast path (all rates zero) adds no allocations and no
// locking beyond one atomic load, preserving the reply pipeline's
// zero-alloc guarantee.
type FaultConn struct {
	inner Conn

	// enabled caches cfg.active() so the fast path is one atomic load.
	enabled atomic.Bool

	mu   sync.Mutex
	cfg  FaultConfig
	rng  *rand.Rand
	held *pktBuf // reorder hold-back slot (send side)

	stats struct {
		dropped, duplicated, reordered, corrupted, truncated, delayed atomic.Int64
	}
}

// NewFaultConn wraps inner with the given fault profile.
func NewFaultConn(inner Conn, cfg FaultConfig) *FaultConn {
	f := &FaultConn{inner: inner}
	f.SetConfig(cfg)
	return f
}

// SetConfig replaces the fault profile (and reseeds the fault stream).
// Safe to call concurrently with Send/Recv.
func (f *FaultConn) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	f.cfg = cfg
	f.rng = rand.New(rand.NewSource(cfg.Seed))
	f.mu.Unlock()
	f.enabled.Store(cfg.active())
}

// Stats returns the fault counters.
func (f *FaultConn) Stats() FaultStats {
	return FaultStats{
		Dropped:    f.stats.dropped.Load(),
		Duplicated: f.stats.duplicated.Load(),
		Reordered:  f.stats.reordered.Load(),
		Corrupted:  f.stats.corrupted.Load(),
		Truncated:  f.stats.truncated.Load(),
		Delayed:    f.stats.delayed.Load(),
	}
}

// Send implements Conn, injecting send-side faults.
//
//qvet:noalloc
func (f *FaultConn) Send(to Addr, data []byte) error {
	if !f.enabled.Load() {
		return f.inner.Send(to, data)
	}
	f.mu.Lock()
	cfg := f.cfg
	roll := func(p float64) bool { return p > 0 && f.rng.Float64() < p }

	if roll(cfg.DropProb) {
		f.mu.Unlock()
		f.stats.dropped.Add(1)
		return nil // lost in transit: sender cannot tell, as with UDP
	}

	// Mutating faults work on a pooled copy so the caller's buffer is
	// never touched (the Conn contract).
	payload := data
	var pb *pktBuf
	if roll(cfg.TruncateProb) && len(payload) > 1 {
		pb = pktPool.Get().(*pktBuf)
		pb.b = append(pb.b[:0], payload...)
		pb.b = pb.b[:1+f.rng.Intn(len(pb.b)-1)]
		payload = pb.b
		f.stats.truncated.Add(1)
	}
	if roll(cfg.CorruptProb) && len(payload) > 0 {
		if pb == nil {
			pb = pktPool.Get().(*pktBuf)
			pb.b = append(pb.b[:0], payload...)
			payload = pb.b
		}
		bit := f.rng.Intn(len(payload) * 8)
		payload[bit/8] ^= 1 << uint(bit%8)
		f.stats.corrupted.Add(1)
	}

	dup := roll(cfg.DupProb)
	if dup {
		f.stats.duplicated.Add(1)
	}

	// Reorder: swap this datagram with the next one through the conn.
	// While one is held back, the next Send releases it afterwards.
	if f.held != nil {
		heldPb := f.held
		f.held = nil
		f.mu.Unlock()
		err := f.transmit(to, payload, dup, cfg)
		_ = f.inner.Send(to, heldPb.b)
		pktPool.Put(heldPb)
		f.releaseCopy(pb)
		return err
	}
	if roll(cfg.ReorderProb) {
		if pb == nil {
			pb = pktPool.Get().(*pktBuf)
			pb.b = append(pb.b[:0], payload...)
		}
		f.held = pb
		f.mu.Unlock()
		f.stats.reordered.Add(1)
		return nil
	}
	f.mu.Unlock()

	err := f.transmit(to, payload, dup, cfg)
	f.releaseCopy(pb)
	return err
}

// transmit performs the actual send(s), applying the delay fault.
func (f *FaultConn) transmit(to Addr, payload []byte, dup bool, cfg FaultConfig) error {
	delay := false
	if cfg.DelayProb > 0 && cfg.Delay > 0 {
		f.mu.Lock()
		delay = f.rng.Float64() < cfg.DelayProb
		f.mu.Unlock()
	}
	if delay {
		f.stats.delayed.Add(1)
		pb := pktPool.Get().(*pktBuf)
		pb.b = append(pb.b[:0], payload...)
		inner, d := f.inner, cfg.Delay
		// The timer closure escapes by design: delay injection is a test
		// fault mode, never active on the steady-state path.
		//qvet:allow=noalloc delay-injection timer closure
		time.AfterFunc(d, func() {
			_ = inner.Send(to, pb.b)
			if dup {
				_ = inner.Send(to, pb.b)
			}
			pktPool.Put(pb)
		})
		return nil
	}
	err := f.inner.Send(to, payload)
	if dup {
		_ = f.inner.Send(to, payload)
	}
	return err
}

func (f *FaultConn) releaseCopy(pb *pktBuf) {
	if pb != nil {
		pktPool.Put(pb)
	}
}

// Recv implements Conn, injecting receive-side drop and corruption.
//
//qvet:noalloc
func (f *FaultConn) Recv(buf []byte, timeout time.Duration) (int, Addr, error) {
	if !f.enabled.Load() {
		return f.inner.Recv(buf, timeout)
	}
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		n, from, err := f.inner.Recv(buf, timeout)
		if err != nil {
			return n, from, err
		}
		f.mu.Lock()
		cfg := f.cfg
		drop := cfg.DropProb > 0 && f.rng.Float64() < cfg.DropProb
		corrupt := !drop && cfg.CorruptProb > 0 && n > 0 && f.rng.Float64() < cfg.CorruptProb
		var bit int
		if corrupt {
			bit = f.rng.Intn(n * 8)
		}
		f.mu.Unlock()
		if corrupt {
			buf[bit/8] ^= 1 << uint(bit%8)
			f.stats.corrupted.Add(1)
		}
		if !drop {
			return n, from, nil
		}
		f.stats.dropped.Add(1)
		// Dropped on arrival: wait out the remaining timeout for another.
		if timeout == 0 {
			return 0, nil, ErrTimeout
		}
		if timeout > 0 {
			timeout = time.Until(deadline)
			if timeout <= 0 {
				return 0, nil, ErrTimeout
			}
		}
	}
}

// LocalAddr implements Conn.
func (f *FaultConn) LocalAddr() Addr { return f.inner.LocalAddr() }

// Close implements Conn.
func (f *FaultConn) Close() error { return f.inner.Close() }

var _ Conn = (*FaultConn)(nil)

// FaultNetwork wraps a Network so every endpoint it opens carries the
// same fault profile — a one-call chaos fabric for tests and benches.
// Each endpoint gets an independent fault stream derived from the base
// seed, so per-conn behavior is deterministic regardless of goroutine
// interleaving.
type FaultNetwork struct {
	net *Network
	cfg FaultConfig

	mu     sync.Mutex
	opened int64
	conns  []*FaultConn
}

// NewFaultNetwork wraps net with the given fault profile.
func NewFaultNetwork(net *Network, cfg FaultConfig) *FaultNetwork {
	return &FaultNetwork{net: net, cfg: cfg}
}

// Listen opens a fault-injecting endpoint on the underlying network.
func (fn *FaultNetwork) Listen(name string) (*FaultConn, error) {
	inner, err := fn.net.Listen(name)
	if err != nil {
		return nil, err
	}
	fn.mu.Lock()
	fn.opened++
	cfg := fn.cfg
	cfg.Seed = fn.cfg.Seed*31 + fn.opened
	fc := NewFaultConn(inner, cfg)
	fn.conns = append(fn.conns, fc)
	fn.mu.Unlock()
	return fc, nil
}

// SetConfig swaps the fault profile on every endpoint opened so far and
// on endpoints opened later. Rate changes keep each conn's derived seed.
func (fn *FaultNetwork) SetConfig(cfg FaultConfig) {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	fn.cfg = cfg
	for i, fc := range fn.conns {
		c := cfg
		c.Seed = cfg.Seed*31 + int64(i) + 1
		fc.SetConfig(c)
	}
}

// Stats sums fault counters across all endpoints.
func (fn *FaultNetwork) Stats() FaultStats {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	var total FaultStats
	for _, fc := range fn.conns {
		st := fc.Stats()
		total.Dropped += st.Dropped
		total.Duplicated += st.Duplicated
		total.Reordered += st.Reordered
		total.Corrupted += st.Corrupted
		total.Truncated += st.Truncated
		total.Delayed += st.Delayed
	}
	return total
}

// clamp01 bounds a probability to [0, 1] (flag parsing convenience).
func clamp01(p float64) float64 {
	if math.IsNaN(p) || p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Clamped returns cfg with every probability bounded to [0, 1].
func (c FaultConfig) Clamped() FaultConfig {
	c.DropProb = clamp01(c.DropProb)
	c.DupProb = clamp01(c.DupProb)
	c.ReorderProb = clamp01(c.ReorderProb)
	c.CorruptProb = clamp01(c.CorruptProb)
	c.TruncateProb = clamp01(c.TruncateProb)
	c.DelayProb = clamp01(c.DelayProb)
	return c
}
