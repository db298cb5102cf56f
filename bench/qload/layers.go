//go:build linux

package main

import "qserve/internal/metrics"

// layerMetric is one per-layer metric of BENCHMARK.json. src says where
// it is measured: "A" the traced in-process engine run (one value per
// workload), "B" the layer probes (one per benchmark run), "L" the load
// generator itself.
type layerMetric struct {
	name, unit, src string
}

// perLayer is the full per-layer list; BENCHMARK.json repeats it and a
// test keeps the two equal. bench/README.md says which end-to-end metric
// each one should move, on which workload.
var perLayer = []layerMetric{
	{"collide.tracebox_ns", "ns", "B"},
	{"collide.brush_tests_per_move", "count", "B"},
	{"physics.playermove_ns", "ns", "B"},
	{"physics.traces_per_move", "count", "B"},
	{"areanode.collectbox_ns", "ns", "B"},
	{"areanode.relink_ns", "ns", "B"},
	{"areanode.nodes_per_move", "count", "B"},
	{"game.execmove_ns", "ns", "B"},
	{"game.execmove_allocs", "count", "B"},
	{"game.execmove_locked_ns", "ns", "B"},
	{"locking.acquire_release_ns", "ns", "B"},
	{"locking.leaf_ops_per_move", "count", "B"},
	{"locking.parent_ops_per_move", "count", "B"},
	{"locking.lock_share", "ratio", "A"},
	{"locking.leaf_lock_share", "ratio", "A"},
	{"server.intra_wait_share", "ratio", "A"},
	{"server.inter_wait_share", "ratio", "A"},
	{"server.steals_per_frame", "count", "A"},
	{"server.steal_conflict_ratio", "ratio", "A"},
	{"server.migrations", "count", "A"},
	{"balance.plan_ns", "ns", "B"},
	{"game.worldframe_ns", "ns", "B"},
	{"game.visbuild_ns", "ns", "B"},
	{"server.reqs_per_frame", "count", "A"},
	{"server.frames_per_s", "1/s", "A"},
	{"server.world_share", "ratio", "A"},
	{"server.snap_build_share", "ratio", "A"},
	{"server.formsnapshot_ns", "ns", "B"},
	{"server.formsnapshot_allocs", "count", "B"},
	{"game.visible_per_reply", "count", "B"},
	{"server.reply_ns_per_reply", "ns", "A"},
	{"server.reply_share", "ratio", "A"},
	{"server.snap_merge_share", "ratio", "A"},
	{"server.reply_bytes_per_reply", "B", "A"},
	{"server.reply_allocs", "count", "A"},
	{"server.request_path_ns", "ns", "B"},
	{"server.request_path_allocs", "count", "B"},
	{"protocol.decode_move_ns", "ns", "B"},
	{"protocol.decode_move_allocs", "count", "B"},
	{"protocol.encode_snapshot_ns", "ns", "B"},
	{"protocol.snapshot_bytes", "B", "B"},
	{"server.recv_ns_per_cmd", "ns", "A"},
	{"server.exec_ns_per_cmd", "ns", "A"},
	{"server.recv_share", "ratio", "A"},
	{"server.exec_share", "ratio", "A"},
	{"transport.udp_sendrecv_ns", "ns", "B"},
	{"transport.mem_sendrecv_ns", "ns", "B"},
	{"transport.mux_recv_ns", "ns", "B"},
	{"transport.udp_poll_empty_ns", "ns", "B"},
	{"server.idle_share", "ratio", "A"},
	{"match.step_ms_p50", "ms", "A"},
	{"match.step_ms_p99", "ms", "A"},
	{"match.late_ms_p99", "ms", "A"},
	{"match.scratch_sets", "count", "A"},
	{"match.idle_step_ns", "ns", "B"},
	{"replay.record_move_ns", "ns", "B"},
	{"checkpoint.capture_ns", "ns", "B"},
	{"checkpoint.bytes_per_capture", "B", "B"},
	{"worldmap.generate_ms", "ms", "B"},
	{"game.newworld_ms", "ms", "B"},
	{"server.mux_drops", "count", "A"},
	{"server.replies_shed", "count", "A"},
	{"server.panics_recovered", "count", "A"},
	{"loadgen.cpu_share", "ratio", "L"},
	{"loadgen.late_ms_p99", "ms", "L"},
	{"loadgen.resp_ms_p99", "ms", "L"},
	{"loadgen.resp_ms_max", "ms", "L"},
	{"loadgen.trace_overhead_pct", "%", "L"},
	{"loadgen.build_s", "s", "L"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers turns what a stopped in-process engine reports into the
// "A" metrics. The counters run from engine start, so they cover the
// connects and the warm-up as well as the window. Shares are of the
// summed thread time, idle and waits included, so they add up to 1;
// metrics of a mechanism the engine does not have read 0.
func engineLayers(rep *engineReport) metricSet {
	var bd metrics.Breakdown
	for i := range rep.threads {
		bd.Add(&rep.threads[i])
	}
	total := float64(bd.Total())
	share := func(c metrics.Component) float64 { return ratio(float64(bd.Ns[c]), total) }
	frames, cmds, dgrams := float64(rep.frames), float64(bd.ExecCmds), float64(bd.ReplyDatagrams)
	if cmds == 0 {
		// Only the parallel engine counts the commands it executes. The
		// sequential one replies once per client per frame, and at these
		// workloads a client has one command in a frame.
		cmds = dgrams
	}
	reply := float64(bd.Ns[metrics.CompReply])

	m := metricSet{}
	m.set("locking.lock_share", share(metrics.CompLock), "ratio")
	m.set("locking.leaf_lock_share", ratio(float64(bd.LeafLockNs), float64(bd.LeafLockNs+bd.ParentLockNs)), "ratio")
	m.set("server.intra_wait_share", share(metrics.CompIntraWait), "ratio")
	m.set("server.inter_wait_share", share(metrics.CompInterWait), "ratio")
	m.set("server.steals_per_frame", ratio(float64(bd.Steals), frames), "count")
	m.set("server.steal_conflict_ratio", ratio(float64(bd.StealConflicts), float64(bd.Steals+bd.StealConflicts)), "ratio")
	m.set("server.migrations", float64(rep.migrations), "count")
	m.set("server.reqs_per_frame", ratio(cmds, frames), "count")
	m.set("server.frames_per_s", ratio(frames, rep.durationS), "1/s")
	m.set("server.world_share", share(metrics.CompWorld), "ratio")
	m.set("server.snap_build_share", ratio(float64(bd.SnapBuildNs), reply), "ratio")
	m.set("server.reply_ns_per_reply", ratio(reply, dgrams), "ns")
	m.set("server.reply_share", share(metrics.CompReply), "ratio")
	m.set("server.snap_merge_share", ratio(float64(bd.SnapMergeNs), reply), "ratio")
	m.set("server.reply_bytes_per_reply", ratio(float64(bd.ReplyBytes), dgrams), "B")
	m.set("server.reply_allocs", float64(bd.ReplyAllocs), "count")
	m.set("server.recv_ns_per_cmd", ratio(float64(bd.Ns[metrics.CompRecv]), cmds), "ns")
	m.set("server.exec_ns_per_cmd", ratio(float64(bd.Ns[metrics.CompExec]), cmds), "ns")
	m.set("server.recv_share", share(metrics.CompRecv), "ratio")
	m.set("server.exec_share", share(metrics.CompExec), "ratio")
	m.set("server.idle_share", share(metrics.CompIdle), "ratio")
	m.set("server.mux_drops", float64(bd.MuxDrops), "count")
	m.set("server.replies_shed", float64(bd.RepliesShed), "count")
	m.set("server.panics_recovered", float64(bd.PanicsRecovered), "count")

	var stepP50, stepP99, lateP99, scratch float64
	if ag := rep.matches; ag != nil {
		stepP50, stepP99, lateP99 = ag.StepHist.P50(), ag.StepHist.P99(), ag.LateHist.P99()
		scratch = float64(ag.ScratchMade)
	}
	m.set("match.step_ms_p50", stepP50, "ms")
	m.set("match.step_ms_p99", stepP99, "ms")
	m.set("match.late_ms_p99", lateP99, "ms")
	m.set("match.scratch_sets", scratch, "count")
	return m
}
