//go:build linux

package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"qserve/internal/geom"
	"qserve/internal/protocol"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		in   []int64
		p    float64
		want int64
	}{
		{ten, 50, 5},   // rank ceil(0.5*10) = 5
		{ten, 95, 10},  // rank ceil(9.5) = 10
		{ten, 90, 9},   // exactly rank 9, no interpolation
		{ten, 1, 1},    // never below the first sample
		{ten, 100, 10}, // the maximum
		{[]int64{7}, 50, 7},
		{[]int64{1, 2, 3, 4, 5}, 50, 3},
		{nil, 50, 0},
	} {
		if got := percentile(tc.in, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", tc.in, tc.p, got, tc.want)
		}
	}
}

func TestDueTimeSchedule(t *testing.T) {
	const t0 = int64(1e9)
	// Clients of one phase group share their due times; groups are an
	// eighth of a client frame apart; a client's moves are a frame apart.
	if a, b := dueTime(t0, 3, 0), dueTime(t0, 3+phaseGroups, 0); a != b {
		t.Errorf("clients 3 and %d are in one group but due at %d and %d", 3+phaseGroups, a, b)
	}
	if got, want := dueTime(t0, 1, 0)-dueTime(t0, 0, 0), frameNs/phaseGroups; got != want {
		t.Errorf("neighbouring groups are %d ns apart, want %d", got, want)
	}
	if got := dueTime(t0, 5, 7) - dueTime(t0, 5, 6); got != frameNs {
		t.Errorf("a client's consecutive moves are %d ns apart, want %d", got, frameNs)
	}
	if got := dueTime(t0, 0, 0); got != t0 {
		t.Errorf("client 0's first move is due at %d, want t0 = %d", got, t0)
	}
}

// openLoopClient is a client with a real socket aimed at a sink nobody
// reads, enough for the send path.
func openLoopClient(t *testing.T, idx int, sink *syscall.SockaddrInet4) *client {
	t.Helper()
	m, err := benchMap()
	if err != nil {
		t.Fatal(err)
	}
	c, err := newClient(idx, 1, m, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	c.to, c.accepted = *sink, true
	return c
}

func sinkAddr(t *testing.T) *syscall.SockaddrInet4 {
	t.Helper()
	fd, err := udpSocket()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	return sa.(*syscall.SockaddrInet4)
}

// A generator that falls behind sends late and says by how much; it
// never skips a move.
func TestOpenLoopCatchesUpAndReportsLateness(t *testing.T) {
	sink := sinkAddr(t)
	now := nowNs()
	sc := &schedule{t0: now - 3*frameNs + frameNs/2} // three moves already due
	sc.warmEnd, sc.windowEnd = sc.t0, sc.t0+100*frameNs
	c := openLoopClient(t, 0, sink)
	var abort atomic.Bool
	s := newShard([]*client{c}, sc, nil, &abort)

	s.sendDue(now, sc)
	if c.seq != 3 || s.st.moves != 3 {
		t.Fatalf("sent %d moves (%d counted), want the 3 that were due", c.seq, s.st.moves)
	}
	if len(s.st.late) != 3 {
		t.Fatalf("%d lateness samples, want 3", len(s.st.late))
	}
	// The oldest was due 2.5 frames ago, the newest half a frame ago.
	if lo, hi := 2*frameNs, 3*frameNs+frameNs/2; s.st.late[0] < lo || s.st.late[0] > hi {
		t.Errorf("first move reported %d ns late, want between %d and %d", s.st.late[0], lo, hi)
	}
	if s.st.late[2] >= s.st.late[0] {
		t.Errorf("lateness %v does not shrink as the generator catches up", s.st.late)
	}
	// Latency counts from the due time, not from the late send.
	if got, want := c.pending[0].at, dueTime(sc.t0, 0, 0); got != want {
		t.Errorf("first move timed from %d, want its due time %d", got, want)
	}
	s.sendDue(now, sc)
	if c.seq != 3 {
		t.Errorf("a second pass at the same instant sent %d more moves", c.seq-3)
	}
}

func TestAnswerMatchesCoalescedReplies(t *testing.T) {
	sc := &schedule{warmEnd: 0, windowEnd: 1e12}
	var st loadStats
	c := &client{pending: []pendingMove{
		{seq: 1, at: 100, counted: true},
		{seq: 2, at: 200, counted: true},
		{seq: 3, at: 300, counted: true},
	}}
	// One reply acknowledging seq 2 answers moves 1 and 2 together.
	if !c.answer(2, 1000, sc, &st, nil) {
		t.Fatal("AckSeq 2 answered nothing")
	}
	if len(c.pending) != 1 || c.pending[0].seq != 3 {
		t.Fatalf("pending after AckSeq 2: %+v, want only seq 3", c.pending)
	}
	if len(st.lat) != 2 || st.lat[0] != 900 || st.lat[1] != 800 {
		t.Errorf("latencies %v, want [900 800]", st.lat)
	}
	if st.replies != 1 {
		t.Errorf("%d answering snapshots counted, want 1", st.replies)
	}
	// A repeat of the same acknowledgement answers nothing new.
	if c.answer(2, 1100, sc, &st, nil) {
		t.Error("a stale AckSeq answered a move")
	}
	// An acknowledgement beyond what was sent still answers what is pending.
	if !c.answer(9, 1200, sc, &st, nil) || len(c.pending) != 0 {
		t.Errorf("AckSeq 9 left %+v pending", c.pending)
	}
	if st.replies != 2 || len(st.lat) != 3 {
		t.Errorf("replies = %d, samples = %d, want 2 and 3", st.replies, len(st.lat))
	}
}

func TestUnansweredMovesExpire(t *testing.T) {
	sc := &schedule{warmEnd: 0, windowEnd: 1e12}
	var st loadStats
	c := &client{pending: []pendingMove{
		{seq: 1, at: 0, counted: true},
		{seq: 2, at: 10, counted: false}, // warm-up move: expires uncounted
		{seq: 3, at: answerTimeoutNs, counted: true},
	}}
	// The reply comes after moves 1 and 2 timed out: it answers only 3.
	if !c.answer(3, answerTimeoutNs+20, sc, &st, nil) {
		t.Fatal("AckSeq 3 answered nothing")
	}
	if st.unanswered != 1 {
		t.Errorf("unanswered = %d, want 1 (the counted one)", st.unanswered)
	}
	if len(st.lat) != 1 || st.lat[0] != 20 {
		t.Errorf("latencies %v, want [20]", st.lat)
	}
}

func TestFailRatioAccounting(t *testing.T) {
	var st loadStats
	st.moves = 990
	st.unanswered = 3
	st.violations[vOrder] = 2
	st.violations[vStuck] = 4
	fc := countFailures(&st, 10, 1)
	if fc.attempted != 1000 || fc.failed != 10 {
		t.Fatalf("attempted %d failed %d, want 1000 and 10", fc.attempted, fc.failed)
	}
	if got := fc.ratio(); got != 0.01 {
		t.Errorf("fail_ratio = %v, want 0.01", got)
	}
	if got := (failCounts{}).ratio(); got != 1 {
		t.Errorf("a run that attempted nothing has fail_ratio %v, want 1", got)
	}
}

func TestReplyOracle(t *testing.T) {
	m, err := benchMap()
	if err != nil {
		t.Fatal(err)
	}
	inside := m.Bounds.Center()
	snap := func(frame, ack, base uint32, deltas ...protocol.EntityDelta) *protocol.Snapshot {
		return &protocol.Snapshot{Frame: frame, AckSeq: ack, BaseFrame: base,
			You: protocol.PlayerState{Origin: inside}, Delta: deltas}
	}
	fresh := func() *client { return &client{m: m, keepsTable: true, rng: rand.New(rand.NewSource(1))} }
	ent := protocol.EntityDelta{ID: 5, Bits: protocol.DNew}

	c := fresh()
	if v := c.observe(snap(10, 1, 0, ent), false); v != vNone {
		t.Fatalf("full-state snapshot: violation %d", v)
	}
	if v := c.observe(snap(11, 2, 11, protocol.EntityDelta{ID: 5, Bits: protocol.DYaw}), false); v != vNone {
		t.Fatalf("delta on the matching baseline: violation %d", v)
	}
	if v := c.observe(snap(12, 1, 12), false); v != vOrder {
		t.Errorf("AckSeq going backwards: violation %d, want order", v)
	}
	if v := c.observe(snap(10, 3, 12), false); v != vOrder {
		t.Errorf("Frame going backwards: violation %d, want order", v)
	}
	if v := c.observe(snap(13, 3, 7), false); v != vContinuity {
		t.Errorf("delta against a baseline never received: violation %d, want continuity", v)
	}
	if v := c.observe(snap(14, 4, 0, ent), false); v != vNone {
		t.Errorf("BaseFrame 0 restarts the stream: violation %d", v)
	}
	if v := c.observe(snap(15, 5, 15, protocol.EntityDelta{ID: 99, Bits: protocol.DYaw}), false); v != vDelta {
		t.Errorf("delta for an entity never announced: violation %d, want apply_delta", v)
	}

	c = fresh()
	out := snap(1, 1, 0)
	out.You.Origin = m.Bounds.Max.Add(geom.V(50, 0, 0))
	if v := c.observe(out, false); v != vBounds {
		t.Errorf("position outside the map: violation %d, want out_of_bounds", v)
	}

	// Distance only counts inside the window, and only once a first
	// position is known.
	c = fresh()
	c.observe(snap(1, 1, 0), true)
	far := snap(2, 2, 2)
	far.You.Origin = inside.Add(geom.V(30, 40, 0))
	c.observe(far, true)
	if c.moved != 50 {
		t.Errorf("moved = %v, want 50", c.moved)
	}
}

// The metric and workload names are fixed in two places, the code and
// BENCHMARK.json; later issues cite them, so they must not drift apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []bound                       `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default window is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(spec.PerLayer), len(perLayer))
	}
	for i, pm := range spec.PerLayer {
		if pm.Name != perLayer[i].name || pm.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the code",
				i, pm.Name, pm.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	have := map[string]string{}
	for _, em := range endToEnd {
		have[em.name] = em.unit
	}
	for _, em := range spec.EndToEnd {
		if unit, ok := have[em.Name]; !ok || unit != em.Unit {
			t.Errorf("end-to-end metric %s [%s] is not one the benchmark measures", em.Name, em.Unit)
		}
		delete(have, em.Name)
	}
	// fail_ratio reads 0 on a healthy run, which the contract bars; it
	// travels as attempted/failed.
	delete(have, "fail_ratio")
	for name := range have {
		t.Errorf("end-to-end metric %s is measured but missing from BENCHMARK.json", name)
	}
}

// One smoke run of seq_paced end to end: builds qserved, drives it over
// loopback UDP, and checks the result hangs together. Timings are not
// asserted; a loaded test machine must not fail this.
func TestSmokeSeqPaced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs qserved")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cs.killAll()
	w, err := findWorkload("seq_paced")
	if err != nil {
		t.Fatal(err)
	}
	wl := w.smoke()
	res, err := e.run(&wl, smokePlan(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, em := range endToEnd {
		if _, ok := res.EndToEnd[em.name]; !ok {
			t.Errorf("end-to-end metric %s missing", em.name)
		}
	}
	// 32 clients at 30 Hz for 2 s: 1940 moves give or take the edges.
	if res.RespSamples < 1500 || res.Attempted < 1500 {
		t.Errorf("only %d of ~1940 moves answered (%d attempted)", res.RespSamples, res.Attempted)
	}
	if res.Failed*100 > res.Attempted {
		t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Violations)
	}
	if v := res.EndToEnd["srv_cpu_us_per_reply"].Value; v <= 0 {
		t.Errorf("srv_cpu_us_per_reply = %v: the server's CPU time was not read", v)
	}
	if v := res.EndToEnd["srv_peak_rss_mb"].Value; v <= 0 {
		t.Errorf("srv_peak_rss_mb = %v: the server's VmHWM was not read", v)
	}
}
