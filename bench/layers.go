package main

import (
	"combining/internal/engine"
)

// layerMetrics fills e.Layer with every per-layer metric of one traced
// episode.  Three sources feed it: the spans around the benchmark's own calls
// (construct, warm-up, snapshot), the gate's sampled timing of the traffic
// boundary, and the probes' per-operation prices multiplied by the exact
// event counts of the timed part.  What the attributed shares leave over is
// engine.residual_share: the step loop's own queue walking.  Counts repeat
// exactly from episode to episode; times carry the host's noise.
func layerMetrics(e *episode, w workload, run *simRun, p probes, tr *tracer) {
	l := e.Layer
	l["host.calib_ms"] = e.CalibMS

	// Prices are workload-independent and reported everywhere.
	l["core.combine_ns"] = p.combine
	l["core.decombine_ns"] = p.decombine
	l["core.reject_ns"] = p.reject
	l["core.integrity_ns"] = p.integrity
	l["rmw.compose_ns"] = p.compose
	l["rmw.apply_ns"] = p.apply
	l["memory.tick_ns"] = p.tick
	l["memory.tick_cached_ns"] = p.tickCached
	l["par.barrier_sync_ns"] = p.barrierSync
	l["engine.route_ns"] = p.route
	l["faults.query_ns"] = p.faultQuery
	l["stats.record_ns"] = p.record
	l["sync.lock_pair_ns"] = p.lockPair
	l["sync.counter_add_ns"] = p.counterAdd
	l["sync.counter_read_ns"] = p.counterRead
	l["sync.barrier_wait_us"] = p.barrierWaitUS
	if run == nil {
		return // synclib: acquire quantiles and CPU were filled by the episode
	}

	// delta is a counter's growth over the timed part.
	delta := func(name string) float64 {
		return float64(run.end.Counter(name) - run.before.Counter(name))
	}
	ops, cycles := delta("completed"), delta("cycles")
	hostNS := run.timedS * 1e9
	perKop := func(name string) float64 { return delta(name) * 1000 / ops }
	share := func(ns float64) float64 { return ns / hostNS }
	// With several workers the switch and module work of a cycle is split
	// between them, so its host time is its CPU time over the width.
	workers := float64(max(w.workers, 1))

	visits := float64(2 * w.procs) // direct engine: every node routes both ways
	if w.kind == kindOmega {
		topo := engine.OmegaOf(w.procs, 2)
		visits = float64(2 * topo.Stages() * w.procs / topo.Radix())
	}
	lat := run.final.Histograms["latency_cycles"]
	l["engine.host_ns_per_cycle"] = hostNS / cycles
	l["engine.host_ns_per_switch_visit"] = hostNS / (cycles * visits)
	l["engine.sim_ops_per_cycle"] = ops / cycles
	l["engine.sim_latency_mean_cycles"] = lat.Mean
	l["engine.sim_latency_p99_cycles"] = lat.P99
	l["engine.switch_visits_per_cycle"] = visits
	l["engine.allocs_per_kop"] = float64(run.mallocs) * 1000 / ops
	l["engine.bytes_per_op"] = float64(run.bts) / ops
	l["engine.cpu_us_per_op"] = run.cpuS * 1e6 / ops
	l["engine.snapshot_us"] = run.snapshotS * 1e6

	if w.kind == kindOmega {
		l["network.construct_ms"] = tr.dur("construct") * 1e3
		l["network.warmup_ms"] = tr.dur("warmup") * 1e3
	} else {
		l["hypercube.construct_ms"] = tr.dur("construct") * 1e3
		l["hypercube.host_ns_per_cycle"] = hostNS / cycles
	}
	l["network.traffic_ns_per_cycle"] = run.trafficNS / cycles
	l["network.traffic_share"] = share(run.trafficNS)

	l["core.combines_per_kop"] = perKop("combines")
	l["core.combine_rejects_per_kop"] = perKop("combine_rejects")
	l["core.combine_share"] = share((delta("combines")*(p.combine+p.decombine) +
		delta("combine_rejects")*p.reject) / workers)

	// Memory: every module is ticked every cycle unless its exit is held;
	// a tick that serves a request costs Enqueue+Tick, the rest an idle Tick.
	memOps := max(delta("mem_requests"), delta("mem_ops"))
	tick := p.tick
	if w.kind == kindCube {
		tick = p.tickCached
	}
	idleTicks := max(float64(w.procs)*cycles-memOps-delta("holds_mem_out"), 0)
	l["memory.ops_per_cycle"] = memOps / cycles
	l["memory.dedup_hits_per_kop"] = perKop("dedup_hits")
	l["memory.share"] = share((memOps*tick + idleTicks*p.tickIdle) / workers)

	l["flow.saturation_cycle_share"] = delta("saturation_cycles") / cycles
	l["flow.holds_per_cycle"] = (delta("holds_rev") + delta("holds_mem") + delta("holds_mem_out")) / cycles

	if w.workers > 1 {
		// network/parallel.go meets at the phase barrier once per reverse
		// stage, once after memory and once per forward stage but the
		// last: 2·stages per cycle.
		syncs := float64(2 * engine.OmegaOf(w.procs, 2).Stages())
		l["par.syncs_per_cycle"] = syncs
		l["par.barrier_share"] = share(syncs * cycles * p.barrierSync)
	}

	if w.kind == kindCube {
		// One drop query per hop and two crash queries (router, module) per
		// node per cycle.
		queries := delta("fwd_hops") + delta("rev_hops") + 2*float64(w.procs)*cycles
		l["faults.share"] = share(queries * p.faultQuery)
		l["faults.retries_per_kop"] = perKop("retries")
		l["faults.drops_per_kop"] = (delta("drops_fwd") + delta("drops_rev")) * 1000 / ops
		l["recover.crashes"] = delta("crashes")
		l["recover.restores"] = delta("restores")
		l["recover.replayed_per_kop"] = perKop("replayed_requests")
		l["recover.checkpoints"] = delta("checkpoints")
	}

	l["stats.share"] = share(ops * p.record)

	l["engine.residual_share"] = 1
	for _, name := range attributedShares {
		l["engine.residual_share"] -= l[name]
	}
}

// attributedShares are the layers' shares of an episode's host time; the
// residual is what they leave.
var attributedShares = []string{
	"network.traffic_share", "core.combine_share", "memory.share",
	"par.barrier_share", "faults.share", "stats.share",
}
