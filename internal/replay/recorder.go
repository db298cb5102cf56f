package replay

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/qfile"
	"qserve/internal/server"
	"qserve/internal/worldmap"
)

// Recorder implements server.Recorder: it accumulates the session's
// input stream in memory and serializes it on Finish. One mutex
// serializes taps from all worker threads; the per-item cost is the
// lock plus a struct store into a pre-grown slice — zero allocations in
// steady state (the overhead tests gate this), well under the cost of
// the move execution it rides on.
//
// With a file sink (NewStreamRecorder) the same recorder is the redo log
// of the durability design (DESIGN.md §12): the header hits the disk at
// open, and at each frame-end tap the frame's items are framed, written
// out and dropped from memory — one file write per frame, off the
// per-move path — so after a kill -9 the file holds a decodable prefix
// of the input stream up to (at worst) the frame in flight. The process
// page cache makes the write visible to a restarted process without
// fsync; surviving power loss is a documented non-goal.
//
// Ordering: calls for one client are already serialized by the engine's
// per-client commit discipline, so the log preserves per-client FIFO —
// the only order the wire can observe (DESIGN.md §10). Cross-client
// interleaving is the mutex's acquisition order: one legal serialization
// of a free-running session, and the exact global order of a
// lockstep-driven one (DESIGN.md §11).
type Recorder struct {
	mu sync.Mutex
	// items is the whole session in memory; with a sink, the records
	// since the last frame flush, and flushed counts the ones before.
	items   []Item
	flushed int
	// ticks mirrors the KindTick count, readable without the mutex: the
	// replay driver polls it to learn that a pending virtual-clock
	// advance has actually been consumed by a world update.
	ticks atomic.Int64
	// lastShed dedups RecordShed: engines report the level every frame,
	// the log only carries changes.
	lastShed int32

	worldSeed int64
	mapJSON   []byte
	m         *worldmap.Map

	// The optional file sink: the open log, its reused framing buffers,
	// and the first encode or write error.
	f       *os.File
	wbuf    []byte
	scratch protocol.Writer
	err     error
}

var _ server.Recorder = (*Recorder)(nil)

// NewRecorder builds a recorder for a session on the given map. The map
// is serialized immediately (it is immutable) so Finish cannot fail on
// it later; worldSeed is game.Config.Seed, carried for header
// compatibility.
func NewRecorder(m *worldmap.Map, worldSeed int64) (*Recorder, error) {
	var mb bytes.Buffer
	if err := m.Save(&mb); err != nil {
		return nil, err
	}
	return &Recorder{
		items:     make([]Item, 0, 4096),
		lastShed:  -1,
		worldSeed: worldSeed,
		mapJSON:   mb.Bytes(),
		m:         m,
	}, nil
}

// NewStreamRecorder builds a recorder whose sink is the file at path
// (truncating any previous file); the log header is written immediately.
func NewStreamRecorder(path string, m *worldmap.Map, worldSeed int64) (*Recorder, error) {
	r, err := NewRecorder(m, worldSeed)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	header := qfile.AppendHeader(nil, logMagic, FormatVersion, worldSeed, protocol.Version, r.mapJSON)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, fmt.Errorf("replay: writing log header: %w", err)
	}
	r.f = f
	r.wbuf = make([]byte, 0, 1<<16)
	return r, nil
}

// Reserve pre-grows the item buffer so the next n taps are guaranteed
// allocation-free (the overhead benchmarks use it; sessions that
// outgrow it just pay the amortized slice growth).
func (r *Recorder) Reserve(n int) {
	r.mu.Lock()
	if free := cap(r.items) - len(r.items); free < n {
		grown := make([]Item, len(r.items), len(r.items)+n)
		copy(grown, r.items)
		r.items = grown
	}
	r.mu.Unlock()
}

func (r *Recorder) append(it Item) {
	r.mu.Lock()
	r.items = append(r.items, it)
	r.mu.Unlock()
}

// RecordTick implements server.Recorder.
func (r *Recorder) RecordTick(dtNs int64) {
	r.append(Item{Kind: KindTick, DtNs: dtNs})
	r.ticks.Add(1)
}

// TickCount returns how many world ticks have been recorded; the tap
// runs after RunWorldFrame returns, so a count increment proves the
// corresponding world update completed.
func (r *Recorder) TickCount() int64 { return r.ticks.Load() }

// RecordMove implements server.Recorder.
func (r *Recorder) RecordMove(clientID uint16, seq uint32, cmd *protocol.MoveCmd) {
	r.append(Item{Kind: KindMove, Client: clientID, Seq: seq, Cmd: *cmd})
}

// RecordConnect implements server.Recorder.
func (r *Recorder) RecordConnect(clientID uint16, entID int32, thread int, name string) {
	r.append(Item{Kind: KindConnect, Client: clientID, Ent: entID, Thread: uint8(thread), Name: name})
}

// RecordDisconnect implements server.Recorder.
func (r *Recorder) RecordDisconnect(clientID uint16, reason uint8) {
	r.append(Item{Kind: KindDisconnect, Client: clientID, Reason: reason})
}

// RecordMigrate implements server.Recorder.
func (r *Recorder) RecordMigrate(clientID uint16, to int) {
	r.append(Item{Kind: KindMigrate, Client: clientID, To: uint8(to)})
}

// RecordShed implements server.Recorder; only level changes are logged.
func (r *Recorder) RecordShed(level int) {
	r.mu.Lock()
	if int32(level) != r.lastShed {
		r.lastShed = int32(level)
		r.items = append(r.items, Item{Kind: KindShed, Level: uint8(level)})
	}
	r.mu.Unlock()
}

// RecordFrameEnd implements server.Recorder and, with a sink, flushes
// the frame's records to the file — the durability point the
// checkpoint's RecItems cut refers to.
func (r *Recorder) RecordFrameEnd(frame uint64) {
	r.mu.Lock()
	r.items = append(r.items, Item{Kind: KindFrame, Frame: frame})
	r.flushLocked()
	r.mu.Unlock()
}

// flushLocked frames the buffered items into the sink and drops them.
func (r *Recorder) flushLocked() {
	if r.f == nil {
		return
	}
	for i := range r.items {
		var err error
		r.wbuf, err = appendItem(r.wbuf, &r.scratch, &r.items[i])
		if err != nil && r.err == nil {
			r.err = err
		}
	}
	if _, err := r.f.Write(r.wbuf); err != nil && r.err == nil {
		r.err = fmt.Errorf("replay: writing log: %w", err)
	}
	r.flushed += len(r.items)
	r.items = r.items[:0]
	r.wbuf = r.wbuf[:0]
}

// Items returns the number of records captured so far.
func (r *Recorder) Items() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushed + len(r.items)
}

// Close flushes any buffered records, closes the sink, and returns the
// first encode or write error of the session. The log stays headless (no
// end record): readers use DecodePrefix, which does not require one. A
// recorder without a sink has nothing to close.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return r.err
	}
	r.flushLocked()
	if err := r.f.Close(); err != nil && r.err == nil {
		r.err = err
	}
	r.f = nil
	return r.err
}

// Finish seals an in-memory recording into a Log (a sink-backed recorder
// keeps only the unflushed tail; its log is the file). When world is
// non-nil its table digest is stamped into the end record — the fidelity
// target a replay of this log reports against. Call after the engine stopped
// (the world must be quiescent); the recorder may be reused afterwards
// only for inspection, not further recording.
func (r *Recorder) Finish(world *game.World) *Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	lg := &Log{
		WorldSeed: r.worldSeed,
		ProtoVer:  protocol.Version,
		Map:       r.m,
		mapJSON:   r.mapJSON,
		Items:     r.items,
	}
	frames := uint64(0)
	for i := len(r.items) - 1; i >= 0; i-- {
		if r.items[i].Kind == KindFrame {
			frames = r.items[i].Frame + 1
			break
		}
	}
	lg.HasEnd = true
	lg.EndFrames = frames
	if world != nil {
		lg.EndDigest = TableDigest(world)
	}
	return lg
}
