package main

import (
	"encoding/json"
	"strings"
)

// metricDef names one metric of the benchmark.  The tables below are the one
// source of BENCHMARK.json (`bench -manifest` prints it; bench_test.go checks
// the committed file against them).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd are the metrics a user of the simulator or of pkg/sync waits for
// or pays for.  Bound is the share of the parent's median by which a metric
// may worsen before a change counts as a regression.  The two timing bounds
// are as wide as a bound may be, because this host's speed shifts by a
// quarter for minutes at a time (README.md, "Why this shape") and a bound
// inside the noise decides nothing; memory is steady to a few per cent.
// Failed operations are not a metric with a bound: they are the
// attempted/failed/correct fields of the result, and any failure fails the
// run.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the traced run's metrics, one group per module of the repo.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// engine: the whole step loop, host-time and cycle domain.
	{Name: "engine.host_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "engine.host_ns_per_switch_visit", Unit: "ns", Better: "lower"},
	{Name: "engine.sim_ops_per_cycle", Unit: "ops/cycle", Better: "higher"},
	{Name: "engine.sim_latency_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "engine.sim_latency_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "engine.switch_visits_per_cycle", Unit: "count", Better: "lower"},
	{Name: "engine.allocs_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "engine.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "engine.route_ns", Unit: "ns", Better: "lower"},
	// network: construction, warm-up and the traffic boundary.
	{Name: "network.construct_ms", Unit: "ms", Better: "lower"},
	{Name: "network.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "network.traffic_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "network.traffic_share", Unit: "ratio", Better: "lower"},
	// core: combining and decombining.
	{Name: "core.combines_per_kop", Unit: "count", Better: "higher"},
	{Name: "core.combine_rejects_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.combine_ns", Unit: "ns", Better: "lower"},
	{Name: "core.decombine_ns", Unit: "ns", Better: "lower"},
	{Name: "core.reject_ns", Unit: "ns", Better: "lower"},
	{Name: "core.integrity_ns", Unit: "ns", Better: "lower"},
	{Name: "core.combine_share", Unit: "ratio", Better: "lower"},
	// rmw: mapping algebra (its time sits inside core and memory).
	{Name: "rmw.compose_ns", Unit: "ns", Better: "lower"},
	{Name: "rmw.apply_ns", Unit: "ns", Better: "lower"},
	// memory: module queue and service.
	{Name: "memory.ops_per_cycle", Unit: "ops/cycle", Better: "higher"},
	{Name: "memory.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "memory.tick_cached_ns", Unit: "ns", Better: "lower"},
	{Name: "memory.dedup_hits_per_kop", Unit: "count", Better: "lower"},
	{Name: "memory.share", Unit: "ratio", Better: "lower"},
	// flow: backpressure.
	{Name: "flow.saturation_cycle_share", Unit: "ratio", Better: "lower"},
	{Name: "flow.holds_per_cycle", Unit: "count", Better: "lower"},
	// par: the parallel stepper's barriers.
	{Name: "par.barrier_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "par.syncs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "par.barrier_share", Unit: "ratio", Better: "lower"},
	{Name: "par.speedup_vs_serial", Unit: "ratio", Better: "higher"},
	// hypercube: the direct engine.
	{Name: "hypercube.host_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "hypercube.construct_ms", Unit: "ms", Better: "lower"},
	// faults and recover.
	{Name: "faults.query_ns", Unit: "ns", Better: "lower"},
	{Name: "faults.retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "faults.drops_per_kop", Unit: "count", Better: "lower"},
	{Name: "faults.share", Unit: "ratio", Better: "lower"},
	{Name: "recover.crashes", Unit: "count", Better: "lower"},
	{Name: "recover.restores", Unit: "count", Better: "lower"},
	{Name: "recover.replayed_per_kop", Unit: "count", Better: "lower"},
	{Name: "recover.checkpoints", Unit: "count", Better: "lower"},
	// stats: the latency histogram.
	{Name: "stats.record_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.share", Unit: "ratio", Better: "lower"},
	// pkg/sync.
	{Name: "sync.lock_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "sync.acquire_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "sync.acquire_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "sync.counter_add_ns", Unit: "ns", Better: "lower"},
	{Name: "sync.counter_read_ns", Unit: "ns", Better: "lower"},
	{Name: "sync.barrier_wait_us", Unit: "us", Better: "lower"},
	{Name: "sync.cpu_us_per_op", Unit: "us", Better: "lower"},
	// host and trace: diagnostics that say whether two runs saw the same host.
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// isTime reports whether a per-layer metric is a host-time reading, which
// the runner summarizes with the fastest-quarter estimator; counts, ratios
// and cycle-domain values take the median of the traced episodes.
func (m metricDef) isTime() bool {
	switch m.Unit {
	case "ns", "us", "ms", "s":
		return true
	}
	return false
}

// runSeconds is the nominal measuring time BENCHMARK.json hands back as
// --seconds: episodesFor(12) = 16 episodes.
const runSeconds = 12

// manifestJSON renders BENCHMARK.json from the tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{Name: w.name, Why: w.why + "; closed loop, " + w.clients()})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // plain data: cannot fail
	}
	return []byte(b.String())
}
