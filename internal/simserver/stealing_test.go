package simserver_test

import (
	"reflect"
	"testing"

	"qserve/internal/conformance"
	"qserve/internal/replay"
	"qserve/internal/simserver"
)

// stealCounts sums the steal and park counters over a run's threads
// (Result.Avg is a per-thread mean, which rounds small counts away).
func stealCounts(res *simserver.Result) (steals, parks int64) {
	for i := range res.PerThread {
		steals += res.PerThread[i].Steals
		parks += res.PerThread[i].StealConflicts
	}
	return
}

// TestStealingRunsAreDeterministic repeats one contended Stealing run:
// the schedule is a pure function of the configuration, so the frame
// count, every thread's breakdown (steal and park counters included), the
// per-frame log and the final entity table must all repeat exactly.
func TestStealingRunsAreDeterministic(t *testing.T) {
	run := func() *simserver.Result {
		res, err := simserver.Run(simserver.Config{
			Players: 96, Threads: 4, DurationS: 2, Seed: 5, Stealing: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if steals, parks := stealCounts(a); steals == 0 || parks == 0 {
		t.Fatalf("run never stole (%d) or parked (%d): the scheduler under test did not engage", steals, parks)
	}
	if a.Frames != b.Frames || a.Requests != b.Requests {
		t.Fatalf("runs diverged: %d/%d frames, %d/%d requests", a.Frames, b.Frames, a.Requests, b.Requests)
	}
	for i := range a.PerThread {
		if a.PerThread[i] != b.PerThread[i] {
			t.Errorf("thread %d breakdown diverged:\n%+v\n%+v", i, a.PerThread[i], b.PerThread[i])
		}
	}
	if !reflect.DeepEqual(a.FrameLog.Frames, b.FrameLog.Frames) {
		t.Error("per-frame logs diverged")
	}
	if da, db := replay.TableDigest(a.World), replay.TableDigest(b.World); da != db {
		t.Errorf("entity tables diverged: digest %x vs %x", da, db)
	}
}

// TestStealingMatchesStaticOnScript drives one scripted, interaction-free
// run through the static and the stealing arm of the one executor: the
// schedules differ, the per-client order does not, so the tables must be
// equal.
func TestStealingMatchesStaticOnScript(t *testing.T) {
	sc, err := conformance.BuildScenario(6, 90)
	if err != nil {
		t.Fatal(err)
	}
	run := func(stealing bool) *simserver.Result {
		res, err := simserver.Run(simserver.Config{
			Map: sc.Map, Players: sc.Players, Threads: 2, Seed: sc.WorldSeed,
			DurationS: 5, Script: sc.Script, MaxMoves: int64(sc.Moves),
			Stealing: stealing,
			// Hold each frame open so it pools several requests per thread;
			// six staggered clients otherwise arrive one per frame and
			// leave nothing to steal.
			BatchDelayNs: 20_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != int64(sc.Players*sc.Moves) {
			t.Fatalf("stealing=%v executed %d requests, want %d", stealing, res.Requests, sc.Players*sc.Moves)
		}
		return res
	}
	static, stolen := run(false), run(true)
	if steals, parks := stealCounts(static); steals != 0 || parks != 0 {
		t.Errorf("static arm reports %d steals, %d parks", steals, parks)
	}
	if steals, _ := stealCounts(stolen); steals == 0 {
		t.Error("stealing arm never stole a request")
	}
	if d := conformance.Diff(sc.PlayerTable(static.World), sc.PlayerTable(stolen.World)); d != "" {
		t.Fatalf("stealing arm diverged from the static arm:\n%s", d)
	}
}
