//go:build linux

package main

import "time"

// epoch is the zero of every timestamp the benchmark takes; readings are
// monotonic nanoseconds since it.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// spanKind names a layer boundary the benchmark calls across.
type spanKind uint8

const (
	// Part A: the generator's own work on each request.
	spanRequest spanKind = iota // send/due -> answering snapshot
	spanEncode
	spanSend
	spanRecv
	spanDecode
	// Part B: the scripted frame pipeline.
	spanFrame
	spanWorldFrame
	spanRequestPath
	spanDecodeMove
	spanExecMove
	spanRecordMove
	spanVisBuild
	spanReply
	spanFormSnapshot
	spanUDPSend
	spanCapture
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanRequest:      "loadgen.request",
	spanEncode:       "loadgen.encode",
	spanSend:         "loadgen.send",
	spanRecv:         "loadgen.recv",
	spanDecode:       "loadgen.decode",
	spanFrame:        "frame",
	spanWorldFrame:   "game.worldframe",
	spanRequestPath:  "server.request_path",
	spanDecodeMove:   "protocol.decode_move",
	spanExecMove:     "game.execmove",
	spanRecordMove:   "replay.record_move",
	spanVisBuild:     "game.visbuild",
	spanReply:        "server.reply",
	spanFormSnapshot: "server.formsnapshot",
	spanUDPSend:      "transport.udp_send",
	spanCapture:      "checkpoint.capture",
}

// span is one trace.json record. Parent indexes the same part's span
// list (-1 for a root); spans of one request share Req = client<<32|seq.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

func reqID(client int, seq uint32) uint64 { return uint64(client)<<32 | uint64(seq) }

// spanAgg totals every span of one kind, kept or not, so layer numbers
// do not depend on how many spans trace.json has room for.
type spanAgg struct {
	N       int64
	Ns      int64
	ChildNs int64 // part of Ns covered by child spans
}

// selfNs is the mean time per span not covered by its children.
func (a spanAgg) selfNs() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Ns-a.ChildNs) / float64(a.N)
}

func (a spanAgg) meanNs() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Ns) / float64(a.N)
}

type openSpan struct {
	kind    spanKind
	start   int64
	childNs int64
	idx     int // position in spans, -1 when not kept
}

// tracer records the spans of one goroutine in memory. A nil tracer is
// tracing switched off: every method returns at once.
type tracer struct {
	keep    int // spans kept for trace.json; the rest only count in agg
	spans   []span
	stack   []openSpan
	agg     [numSpanKinds]spanAgg
	dropped int64
}

func newTracer(keep int) *tracer {
	return &tracer{keep: keep, spans: make([]span, 0, keep), stack: make([]openSpan, 0, 8)}
}

// begin opens a span nested in whatever span is open.
func (t *tracer) begin(k spanKind, req uint64) {
	if t == nil {
		return
	}
	idx := -1
	if len(t.spans) < t.keep {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: spanNames[k], Parent: parent, Req: req})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, openSpan{kind: k, idx: idx, start: nowNs()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	end := nowNs()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := end - o.start
	a := &t.agg[o.kind]
	a.N++
	a.Ns += d
	a.ChildNs += o.childNs
	if n > 0 {
		t.stack[n-1].childNs += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].Start, t.spans[o.idx].End = o.start, end
	}
}

// endReq closes the innermost span and files it under req, for work
// whose request is only known once it is done (a datagram just decoded).
func (t *tracer) endReq(req uint64) {
	if t == nil {
		return
	}
	if idx := t.stack[len(t.stack)-1].idx; idx >= 0 {
		t.spans[idx].Req = req
	}
	t.end()
}

// cancel discards the innermost open span (a read that found nothing).
func (t *tracer) cancel() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	if idx := t.stack[n].idx; idx >= 0 {
		t.spans = t.spans[:idx] // nothing was appended since: it is the last
	} else {
		t.dropped--
	}
	t.stack = t.stack[:n]
}

// add files a root span whose ends were timed elsewhere: a request lives
// from its send to its answer, across many wake-ups of the shard.
func (t *tracer) add(k spanKind, start, end int64, req uint64) {
	if t == nil {
		return
	}
	a := &t.agg[k]
	a.N++
	a.Ns += end - start
	if len(t.spans) < t.keep {
		t.spans = append(t.spans, span{Name: spanNames[k], Start: start, End: end, Parent: -1, Req: req})
	} else {
		t.dropped++
	}
}

// tracePart is one section of trace.json.
type tracePart struct {
	Part    string `json:"part"`
	Dropped int64  `json:"spans_not_kept"`
	Spans   []span `json:"spans"`
}

func (t *tracer) part(name string) tracePart {
	return tracePart{Part: name, Dropped: t.dropped, Spans: t.spans}
}
