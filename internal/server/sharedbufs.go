package server

import (
	"sync"

	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// SharedBufs is the cross-instance frame-scratch pool (DESIGN.md §13).
// A match manager running thousands of engines in one process sets one
// SharedBufs in every match's Config; each engine borrows a buffer set
// (receive buffer, reply scratch, event and client sweep buffers, and
// the visibility index) while it has work and parks it again when idle.
// The pool therefore holds roughly one warm scratch set per
// *simultaneously active* match — bounded by the scheduler's worker
// count plus the currently loaded matches — instead of one per match.
//
// Ownership rules: a scratch set belongs to exactly one engine between
// get and put, and an engine only touches it inside StepFrame, which
// the scheduler serializes per match. Per-client state (delta baselines,
// event backlogs) is NOT pooled — it must survive across frames for as
// long as the client is connected, and an idle match has no clients, so
// it holds none of it.
type SharedBufs struct {
	mu   sync.Mutex
	free []*frameBufs
	made int
}

// NewSharedBufs builds an empty pool; scratch sets are created on first
// demand.
func NewSharedBufs() *SharedBufs { return &SharedBufs{} }

// frameScratch is one worker's per-frame buffer set: the receive buffer and
// everything the reply pass reuses across clients and frames so the hot
// path allocates nothing in steady state (see reply.go for the ownership
// rules), including the batch its reply datagrams queue in until sent.
// A worker owns one for life, or — with Config.Shared — borrows one from
// the pool (frameBufs).
type frameScratch struct {
	recvBuf    []byte
	reply      ReplyScratch
	replies    transport.Batch
	frameEv    []protocol.GameEvent
	backlogBuf []protocol.GameEvent
	clientBuf  []*client
}

func newFrameScratch() *frameScratch {
	return &frameScratch{recvBuf: make([]byte, transport.MaxDatagram)}
}

// frameBufs is the unit SharedBufs lends: a worker's scratch and a
// visibility index. A stepped engine has one worker, so one set carries
// everything its frame touches; the index in it is the engine's
// (visBuilder.index) while borrowed.
type frameBufs struct {
	scratch frameScratch
	vis     game.VisIndex
}

// get borrows a scratch set, building one only when the pool is dry.
// A deliberate free list rather than sync.Pool: the GC may drop pooled
// items at any time, which would re-introduce steady-state allocations
// on the scheduler's per-frame path.
func (p *SharedBufs) get() *frameBufs {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.made++
	p.mu.Unlock()
	return &frameBufs{scratch: *newFrameScratch()}
}

// put parks a scratch set for the next borrower. Grown capacity travels
// with the set (the next borrower benefits); retained pointers do not —
// the client sweep buffer is cleared and the visibility index drops its
// world reference, so a parked set cannot keep another match's state
// reachable.
func (p *SharedBufs) put(b *frameBufs) {
	b.vis.Detach()
	sc := &b.scratch
	cb := sc.clientBuf[:cap(sc.clientBuf)]
	for i := range cb {
		cb[i] = nil
	}
	sc.clientBuf = cb[:0]
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Made returns how many scratch sets the pool ever built — the
// high-water mark of simultaneously active matches (diagnostics; the
// instancing benchmark asserts it stays far below the match count).
func (p *SharedBufs) Made() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.made
}

// Free returns how many scratch sets are currently parked.
func (p *SharedBufs) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
