package simserver

import (
	"fmt"
	"time"

	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/sim"
)

// Playback replays a recorded input stream (internal/replay) through the
// discrete-event engine. Items are driven strictly in log order with at
// most one in flight server-wide: a client's move is offered to its
// owning thread's port only when the move is the cursor item and the
// previous item has committed, so the DES commit order IS the log order
// — the same global-lockstep discipline the live replayer uses, which is
// what makes DES world evolution bit-comparable with every live engine's
// replay of the same log (DESIGN.md §11).
//
// Control items (ticks, connects, disconnects) arrive on thread 0 and
// execute inline in its request phase. That is safe precisely because of
// the lockstep gating: when a control item is offered, no move is
// mid-execution anywhere (the cursor only moved past the previous item
// at its commit), no reply phase is running (request and reply phases of
// a frame are barrier-separated, and frames are global), and the
// discrete-event machine runs one context at a time — so SpawnPlayer,
// RemovePlayer, and RunWorldFrame mutate the world exclusively.
type Playback struct {
	// Items is the recorded stream in commit order.
	Items []PlayItem
	// Clients is the dense-client-index space size: every PlayItem.Client
	// is < Clients.
	Clients int
}

// PlayKind discriminates playback items.
type PlayKind uint8

const (
	// PlayTick runs one world-physics update with the recorded dt.
	PlayTick PlayKind = iota + 1
	// PlayMove executes one recorded move command for one client.
	PlayMove
	// PlayConnect spawns a recorded client's player entity.
	PlayConnect
	// PlayDisconnect removes a recorded client's player entity.
	PlayDisconnect
)

// PlayItem is one recorded input.
type PlayItem struct {
	Kind PlayKind
	// Client is a dense index (assigned in first-connect order by the
	// log converter); meaningful for Move/Connect/Disconnect.
	Client int
	// DtNs is the world tick's duration (PlayTick).
	DtNs int64
	// Seq is the recorded wire sequence number (PlayMove), carried so a
	// re-recording of the playback reproduces the original log.
	Seq uint32
	// Cmd is the move command (PlayMove).
	Cmd protocol.MoveCmd
	// Name is the recorded join name (PlayConnect).
	Name string
}

// Virtual arrival pacing of playback items. The absolute values are
// arbitrary — lockstep gating, not arrival times, serializes the run —
// they only need to be strictly increasing (sources must be
// nondecreasing) and cheap to skip when the engine's clock runs ahead.
const (
	playBaseNs = 1_000_000 // first item arrives at 1ms
	playGapNs  = 50_000    // 50µs apart
	// playItemBudgetNs is the virtual-time allowance per item in the
	// run-end backstop. Lockstep gating means nearly every item pays a
	// full frame of reply/barrier overhead (~1.5ms virtual with 16
	// clients), far beyond the 50µs arrival gap, so the backstop must
	// scale with the stream length; the normal exit is the drained
	// cursor, long before the backstop.
	playItemBudgetNs = 10_000_000
	// playDrainSlackNs pads the run-end backstop past the last arrival
	// so short streams still get a generous drain window; Run fails
	// loudly if the cursor did not reach the end.
	playDrainSlackNs = 10_000_000_000
)

// playControl is the arrival payload of a non-move playback item.
type playControl struct{ idx int }

// playbackState is the engine's cursor over the playback stream.
type playbackState struct {
	pb       *Playback
	cursor   int
	inFlight bool
	byClient []*simClient // dense index → live client, nil when not connected
	err      error
}

func (ps *playbackState) at(i int) int64 { return playBaseNs + int64(i)*playGapNs }

// commit retires the in-flight item and exposes the next one.
func (ps *playbackState) commit() {
	ps.inFlight = false
	ps.cursor++
}

// drained reports that every item has committed (or the stream was
// failed): the run's normal end condition. Workers exit at the next
// frame boundary instead of idling out the virtual-time backstop.
func (ps *playbackState) drained() bool {
	return ps.cursor >= len(ps.pb.Items) && !ps.inFlight
}

func (ps *playbackState) fail(err error) {
	if ps.err == nil {
		ps.err = err
	}
	// Stop offering items; every port reads Infinity and the run drains
	// to its end, where Run reports the failure.
	ps.cursor = len(ps.pb.Items)
	ps.inFlight = false
}

// peek implements the playback half of clientPort.Peek: the cursor item
// is offered to exactly one thread — the move's owner, or thread 0 for
// control items — and only while nothing is in flight.
func (ps *playbackState) peek(thread int) int64 {
	if ps.inFlight || ps.cursor >= len(ps.pb.Items) {
		return sim.Infinity
	}
	it := &ps.pb.Items[ps.cursor]
	if it.Kind == PlayMove {
		c := ps.byClient[it.Client]
		if c != nil && c.thread == thread {
			return ps.at(ps.cursor)
		}
		return sim.Infinity
	}
	if thread == 0 {
		return ps.at(ps.cursor)
	}
	return sim.Infinity
}

// pop implements the playback half of clientPort.Pop. Only valid after
// peek returned a finite time for this thread; the item stays in flight
// (gating every port to Infinity) until its commit.
func (ps *playbackState) pop() sim.Arrival {
	it := &ps.pb.Items[ps.cursor]
	ps.inFlight = true
	if it.Kind == PlayMove {
		return sim.Arrival{
			At:      ps.at(ps.cursor),
			Payload: &simRequest{client: ps.byClient[it.Client], seq: int64(ps.cursor)},
		}
	}
	return sim.Arrival{At: ps.at(ps.cursor), Payload: &playControl{idx: ps.cursor}}
}

// moveSeq returns the wire sequence number the Record tap logs for a
// committed move: the recorded one under playback, the 1-based source
// sequence otherwise (matching the live lockstep drivers' convention).
func (e *engine) moveSeq(seq int64) uint32 {
	if e.pbs != nil {
		return e.pbs.pb.Items[seq].Seq
	}
	return uint32(seq + 1)
}

// playControl executes one non-move playback item inline in thread 0's
// request phase (see the Playback doc for why this is exclusive).
func (e *engine) playControl(p *sim.Proc, pc *playControl) {
	ps := e.pbs
	it := &ps.pb.Items[pc.idx]
	switch it.Kind {
	case PlayTick:
		// Exactly the recorded dt, converted with the same
		// Duration.Seconds() rounding the live engines use, so the world
		// integrates the identical float64 step.
		res := e.world.RunWorldFrame(time.Duration(it.DtNs).Seconds())
		p.Advance(e.model.WorldCost(res.Work))
		e.frameEvents += len(res.Events)
		if r := e.cfg.Record; r != nil {
			r.RecordTick(it.DtNs)
		}
	case PlayConnect:
		ent, err := e.world.SpawnPlayer()
		if err != nil {
			ps.fail(fmt.Errorf("playback item %d: connect: %w", pc.idx, err))
			return
		}
		thread := server.BlockAssign(it.Client, e.cfg.Threads, ps.pb.Clients)
		c := &simClient{idx: it.Client, thread: thread, ent: ent}
		e.clients = append(e.clients, c)
		e.byThread[thread] = append(e.byThread[thread], c)
		ps.byClient[it.Client] = c
		if r := e.cfg.Record; r != nil {
			r.RecordConnect(uint16(it.Client), int32(ent.ID), thread, it.Name)
		}
	case PlayDisconnect:
		c := ps.byClient[it.Client]
		if c == nil {
			ps.fail(fmt.Errorf("playback item %d: disconnect of unconnected client %d", pc.idx, it.Client))
			return
		}
		e.world.RemovePlayer(c.ent.ID)
		c.pending = false
		ps.byClient[it.Client] = nil
		e.byThread[c.thread] = removeClient(e.byThread[c.thread], c)
		e.clients = removeClient(e.clients, c)
		if r := e.cfg.Record; r != nil {
			r.RecordDisconnect(uint16(it.Client), server.DiscReasonClient)
		}
	default:
		ps.fail(fmt.Errorf("playback item %d: unhandled kind %d", pc.idx, it.Kind))
		return
	}
	ps.commit()
}

// removeClient splices c out of a client slice, preserving order.
func removeClient(cs []*simClient, c *simClient) []*simClient {
	for i, x := range cs {
		if x == c {
			return append(cs[:i], cs[i+1:]...)
		}
	}
	return cs
}

// handleArrival dispatches one port arrival: playback control items run
// inline, move requests go through the receive path.
func (e *engine) handleArrival(p *sim.Proc, arr sim.Arrival) {
	if pc, ok := arr.Payload.(*playControl); ok {
		e.playControl(p, pc)
		return
	}
	e.receive(p, arr.Payload.(*simRequest), arr.At)
}
