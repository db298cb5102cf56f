package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/qfile"
	"qserve/internal/worldmap"
)

// Default cadence for servers that enable checkpointing without picking
// one: a full/delta rotation of one full image per eight deltas, with a
// capture every 120 frames (4s at the 30fps server rate) — frequent
// enough that the redo tail stays short, rare enough that the capture
// cost vanishes in the frame budget (<2% gated by TestCheckpointOverheadDES).
const (
	DefaultInterval   = 120
	DefaultDeltaEvery = 8
)

// Config parameterizes a Writer.
type Config struct {
	// Dir is the checkpoint directory; files are written as
	// ckpt-<frame>-full.qck / ckpt-<frame>-delta.qck via atomic rename.
	Dir string
	// Interval is the capture cadence in frames (capture when
	// frame%Interval == 0). Zero disables Due (manual captures only).
	Interval uint64
	// DeltaEvery is the number of delta checkpoints between full images;
	// zero means every checkpoint is full.
	DeltaEvery int
	// WorldSeed and Map go into the file header so recovery can rebuild
	// the world from the checkpoint alone.
	WorldSeed int64
	Map       *worldmap.Map
}

// Meta carries the engine-side counters a capture must record alongside
// the world: the completed frame, the replay-log item count at the
// barrier (the redo-log cut point), and the client-id/join allocation
// state.
type Meta struct {
	Frame        uint64
	RecItems     uint64
	JoinIdx      int
	NextClientID uint16
}

// Stats summarizes one committed capture.
type Stats struct {
	Bytes    int
	Full     bool
	Entities int // records emitted (changed+new for a delta)
	Gone     int
}

type flushReq struct {
	buf   []byte
	frame uint64
	full  bool
}

// Writer captures checkpoints at the reply barrier. The capture path —
// Begin, AddClient per client, Commit — encodes into a preallocated
// buffer and hands it to a background flusher goroutine; steady-state it
// performs zero heap allocations (gated by BenchmarkWriterCapture), so
// the barrier pays only the serialization walk. If the flusher still
// owns every buffer when a capture comes due, the capture is skipped and
// counted rather than blocking the frame.
type Writer struct {
	cfg    Config
	header []byte // precomputed magic+version+header record

	// Double-buffered encode targets: capture takes a buffer from free,
	// the flusher returns it after the rename.
	free chan []byte
	reqs chan flushReq
	done chan struct{}

	// base is the last full image's entity records (ascending ID), the
	// diff target for delta captures; cur is the scratch the next full
	// image builds into before the two swap.
	base      []EntityRec
	cur       []EntityRec
	baseFrame uint64
	haveBase  bool
	gone      []uint32

	// In-flight capture state between Begin and Commit.
	em        emitter
	digest    qfile.Fold64
	meta      Meta
	full      bool
	capturing bool
	nEnts     int
	nFree     int
	nClients  int

	captures uint64 // committed captures, for the full/delta cadence
	skipped  uint64

	mu       sync.Mutex
	flushErr error

	closeOnce sync.Once
}

// NewWriter builds a Writer and starts its flusher. The header (with the
// embedded map) is encoded once here; captures only copy it.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("checkpoint: no directory")
	}
	if cfg.Map == nil {
		return nil, fmt.Errorf("checkpoint: no map")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var mb bytes.Buffer
	if err := cfg.Map.Save(&mb); err != nil {
		return nil, fmt.Errorf("checkpoint: serializing map: %w", err)
	}
	w := &Writer{
		cfg:    cfg,
		header: qfile.AppendHeader(nil, ckMagic, FormatVersion, cfg.WorldSeed, protocol.Version, mb.Bytes()),
		free:   make(chan []byte, 2),
		reqs:   make(chan flushReq, 2),
		done:   make(chan struct{}),
	}
	w.free <- make([]byte, 0, len(w.header)+4096)
	w.free <- make([]byte, 0, len(w.header)+4096)
	go w.flusher()
	return w, nil
}

// Due reports whether a capture is scheduled for the just-completed
// frame.
func (w *Writer) Due(frame uint64) bool {
	return w.cfg.Interval > 0 && frame > 0 && frame%w.cfg.Interval == 0
}

// Skipped returns how many due captures were dropped because the
// flusher still owned every buffer.
func (w *Writer) Skipped() uint64 { return w.skipped }

// Err returns the first flush error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushErr
}

// Begin starts a capture of world at the reply barrier. It encodes the
// header, meta, entity, gone and free-list sections; the caller then
// feeds every connected client through AddClient (ascending client id)
// and seals the file with Commit. Returns false — capture skipped — when
// no encode buffer is free. The world must be frame-stable for the whole
// Begin..Commit window (the reply phase guarantees this).
//
//qvet:phase=reply
//qvet:noalloc
func (w *Writer) Begin(world *game.World, meta Meta) bool {
	var buf []byte
	select {
	case buf = <-w.free:
	default:
		w.skipped++
		w.capturing = false
		return false
	}

	w.meta = meta
	w.full = !w.haveBase || w.cfg.DeltaEvery <= 0 || w.captures%uint64(w.cfg.DeltaEvery+1) == 0
	em := &w.em
	em.buf = append(buf[:0], w.header...)
	w.digest = qfile.Fold64Init.F64(world.Time)
	w.nEnts, w.nClients = 0, 0
	w.gone = w.gone[:0]
	w.cur = w.cur[:0]

	head := Checkpoint{
		Frame:        meta.Frame,
		WorldTime:    world.Time,
		SpawnCursor:  world.SpawnCursor(),
		HighWater:    world.Ents.HighWater(),
		Capacity:     world.Ents.Capacity(),
		TreeDepth:    world.Tree.Depth(),
		NextClientID: meta.NextClientID,
		JoinIdx:      meta.JoinIdx,
		RecItems:     meta.RecItems,
		Full:         w.full,
	}
	if !w.full {
		head.BaseFrame = w.baseFrame
	}
	encodeMeta(&em.p, &head)
	em.record(CkMeta)

	// Entity section: walk the live table in ID order, folding the
	// digest over every entity; full captures emit and retain every
	// record, deltas emit only records differing from the base image and
	// collect base IDs no longer live. The ForEach closure does not
	// escape, so it stays off the heap.
	bi := 0
	world.Ents.ForEach(func(e *entity.Entity) {
		var rec EntityRec
		recFromEntity(e, &rec)
		w.digest = foldEntity(w.digest, &rec)
		changed := true
		if w.full {
			w.cur = append(w.cur, rec)
		} else {
			for ; bi < len(w.base) && w.base[bi].ID < rec.ID; bi++ {
				w.gone = append(w.gone, w.base[bi].ID)
			}
			if bi < len(w.base) && w.base[bi].ID == rec.ID {
				changed = rec != w.base[bi]
				bi++
			}
		}
		if changed {
			encodeEntity(&em.p, &rec)
			em.record(CkEntity)
			w.nEnts++
		}
	})
	if w.full {
		w.base, w.cur = w.cur, w.base
		w.baseFrame = meta.Frame
		w.haveBase = true
	} else {
		for ; bi < len(w.base); bi++ {
			w.gone = append(w.gone, w.base[bi].ID)
		}
	}

	// Gone and free-list sections, chunked under the record size cap.
	appendIDChunks(em, CkGone, w.gone)
	free := world.Ents.FreeList()
	w.nFree = len(free)
	appendIDChunks(em, CkFree, free)

	w.capturing = true
	return true
}

// AddClient appends one client record to the in-flight capture. Callers
// feed clients in ascending client-id order. No-op when Begin skipped.
//
//qvet:phase=reply
//qvet:noalloc
func (w *Writer) AddClient(rec ClientRec) {
	if !w.capturing {
		return
	}
	if len(rec.Baseline) > maxBaseline {
		rec.Baseline = rec.Baseline[:maxBaseline]
	}
	encodeClient(&w.em.p, &rec)
	w.em.record(CkClient)
	w.nClients++
}

// Commit seals the capture — end record with section counts and the
// world digest — and hands the buffer to the flusher. Returns the
// capture's stats; zero Stats when Begin skipped.
//
//qvet:phase=reply
//qvet:noalloc
func (w *Writer) Commit() Stats {
	if !w.capturing {
		return Stats{}
	}
	w.capturing = false
	em := &w.em
	encodeEnd(&em.p, w.nEnts, len(w.gone), w.nFree, w.nClients, uint64(w.digest))
	em.record(CkEnd)
	if em.err != nil {
		// Payloads are bounded by construction (idChunk, maxBaseline), so
		// the u16 length cannot overflow.
		panic(em.err)
	}

	st := Stats{Bytes: len(em.buf), Full: w.full, Entities: w.nEnts, Gone: len(w.gone)}
	w.captures++
	// Never blocks: reqs has the same capacity as free, and this buffer
	// was taken from free.
	w.reqs <- flushReq{buf: em.buf, frame: w.meta.Frame, full: w.full}
	em.buf = nil
	return st
}

// FileName returns the on-disk name for a capture of the given frame.
func FileName(frame uint64, full bool) string {
	kind := "delta"
	if full {
		kind = "full"
	}
	return fmt.Sprintf("ckpt-%016d-%s.qck", frame, kind)
}

// keepGenerations is how many full images, each with the deltas on it,
// stay on disk: the current one, and one older so LoadLatest's
// corrupt-skip fallback still has an image to fall back to.
const keepGenerations = 2

// flusher renames each capture into place and, once a full image has
// opened a new generation, removes the generations past keepGenerations
// so the directory stays bounded however long the server runs. The
// buffer goes back to the capture path as soon as the rename is done:
// pruning must not make a due capture skip.
func (w *Writer) flusher() {
	defer close(w.done)
	for req := range w.reqs {
		err := atomicWrite(filepath.Join(w.cfg.Dir, FileName(req.frame, req.full)), req.buf)
		w.free <- req.buf
		if err == nil && req.full {
			err = pruneDir(w.cfg.Dir)
		}
		if err != nil {
			w.mu.Lock()
			if w.flushErr == nil {
				w.flushErr = err
			}
			w.mu.Unlock()
		}
	}
}

// pruneDir removes every checkpoint file older than the
// keepGenerations-th newest full image in dir.
func pruneDir(dir string) error {
	files, err := ListDir(dir)
	fulls := 0
	for i := len(files) - 1; i >= 0; i-- {
		if !files[i].Full {
			continue
		}
		if fulls++; fulls < keepGenerations {
			continue
		}
		for _, fi := range files[:i] {
			if rerr := os.Remove(fi.Path); rerr != nil && err == nil {
				err = rerr
			}
		}
		break
	}
	return err
}

// Close drains the flusher and returns the first flush error. Safe to
// call more than once; the writer must not be used afterwards.
func (w *Writer) Close() error {
	w.closeOnce.Do(func() {
		close(w.reqs)
		<-w.done
	})
	return w.Err()
}

// recFromEntity packs a live entity into its checkpoint record.
func recFromEntity(e *entity.Entity, rec *EntityRec) {
	rec.ID = uint32(e.ID)
	rec.Class = uint8(e.Class)
	rec.Flags = 0
	if e.OnGround {
		rec.Flags |= FlagOnGround
	}
	if e.HasPowerup {
		rec.Flags |= FlagHasPowerup
	}
	if e.SnapEligible {
		rec.Flags |= FlagSnapEligible
	}
	if e.Link.Linked() {
		rec.Flags |= FlagLinked
	}
	rec.Origin = e.Origin
	rec.Velocity = e.Velocity
	rec.Angles = e.Angles
	rec.Mins = e.Mins
	rec.Maxs = e.Maxs
	rec.Health = int64(e.Health)
	rec.Armor = int64(e.Armor)
	rec.Frags = int64(e.Frags)
	rec.Deaths = int64(e.Deaths)
	rec.Weapon = e.Weapon
	rec.Weapons = e.Weapons
	rec.Ammo = int64(e.Ammo)
	rec.PowerupUntil = e.PowerupUntil
	rec.ItemClass = uint8(e.ItemClass)
	rec.ItemSpawn = int64(e.ItemSpawn)
	rec.RespawnAt = e.RespawnAt
	rec.Owner = int32(e.Owner)
	rec.Damage = int64(e.Damage)
	rec.DieAt = e.DieAt
	rec.RespawnTime = e.RespawnTime
	rec.RefireAt = e.RefireAt
	rec.NextThink = e.NextThink
	rec.RoomID = int32(e.RoomID)
	rec.ModelFrame = e.ModelFrame
}
