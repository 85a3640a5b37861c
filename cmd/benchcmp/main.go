// Command benchcmp compares two BENCH_combining.json baselines
// benchstat-style: points are matched across files by their parameter
// fields (procs, hot_fraction, workers, …), the metric fields of matched
// pairs are diffed, and every change is printed as old → new with the
// percentage delta.
//
// Usage:
//
//	benchcmp [-threshold 5] [-all] [-fail] old.json new.json
//
// The two clocks are treated differently.  Cycle-domain metrics —
// bandwidth, latency in cycles, combines — are deterministic for equal
// parameters: any difference at all is reported.  Wall-clock metrics wobble
// run to run and host to host: -threshold sets their reporting cutoff in
// percent (default 5).  -all prints every matched metric.
//
// -fail makes the comparison a regression gate: exit status 1 iff a
// cycle-domain metric differs at all, or a point (or section) of the old
// file is missing from the new one.  Wall-clock changes are reported and
// never fail; neither does the asyncnet_faa section, whose goroutine engine
// has no cycle clock, so even its combine count rides on the scheduler.
//
//	go run ./cmd/experiments -bench -out /tmp/new.json
//	go run ./cmd/benchcmp -fail BENCH_combining.json /tmp/new.json
//
// Points present only in the new file (a new sweep section, a new cell)
// are listed but never fail the comparison — schema growth is expected.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricFields are the per-point result fields; everything else scalar in
// a point is treated as its identity.  The value marks the wall-clock
// metrics (they vary across runs and hosts even when the simulation is
// unchanged); false is the cycle domain.
var metricFields = map[string]bool{
	"bandwidth_ops_per_cycle": false,
	"mean_latency_cycles":     false,
	"p99_latency_cycles":      false,
	"combines":                false,
	"elapsed_ns":              true,
	"ns_per_cycle":            true,
	"speedup_vs_serial":       true,
	"ns_per_sync":             true,
	"ns_per_op":               true,
	"ops_per_sec":             true,
}

// clocklessSections hold points measured on the goroutine engine: there is
// no cycle clock, so their cycle-domain-named counts (combines) depend on
// the scheduler and never fail the gate.
var clocklessSections = map[string]bool{"asyncnet_faa": true}

// ignoredFields are neither identity nor metric: nested objects and
// host-dependent context.
var ignoredFields = map[string]bool{
	"snapshot":  true,
	"host_cpus": true,
}

type point map[string]any

// identity renders a point's parameter fields as a stable "k=v k=v" key.
func identity(p point) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		if _, isMetric := metricFields[k]; isMetric || ignoredFields[k] {
			continue
		}
		if _, isObj := p[k].(map[string]any); isObj {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, p[k]))
	}
	return strings.Join(parts, " ")
}

func main() {
	threshold := flag.Float64("threshold", 5, "report wall-clock metrics whose relative change exceeds this percentage")
	all := flag.Bool("all", false, "print every matched metric, not just the changes")
	failOn := flag.Bool("fail", false, "exit with status 1 if a cycle-domain metric differs or an old point is missing")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold pct] [-all] [-fail] old.json new.json")
		os.Exit(2)
	}
	if *threshold < 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: -threshold must be ≥ 0, got %g\n", *threshold)
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	res := compare(os.Stdout, oldRep, newRep, flag.Arg(0), flag.Arg(1), *threshold, *all)
	if *failOn && res.regressed() {
		os.Exit(1)
	}
}

// result tallies one comparison.
type result struct {
	compared  int // metric pairs diffed
	cycleDiff int // cycle-domain metrics that differ at all (clockless sections excluded)
	wallDiff  int // wall-clock or clockless metrics beyond the threshold
	missing   int // old points with no counterpart in the new file
}

// regressed is the -fail verdict.
func (r result) regressed() bool { return r.cycleDiff > 0 || r.missing > 0 }

// compare diffs two reports onto w; oldName and newName label one-sided
// points.
func compare(w io.Writer, oldRep, newRep map[string][]point, oldName, newName string, threshold float64, all bool) result {
	sections := make([]string, 0, len(oldRep))
	for sec := range oldRep {
		sections = append(sections, sec)
	}
	for sec := range newRep {
		if _, ok := oldRep[sec]; !ok {
			sections = append(sections, sec)
		}
	}
	sort.Strings(sections)

	var res result
	for _, sec := range sections {
		oldPts, newPts := index(oldRep[sec]), index(newRep[sec])
		if oldPts == nil && newPts != nil {
			fmt.Fprintf(w, "%s: section only in %s (%d points)\n", sec, newName, len(newPts))
			continue
		}
		if newPts == nil && oldPts != nil {
			fmt.Fprintf(w, "%s: section only in %s (%d points)\n", sec, oldName, len(oldPts))
			res.missing += len(oldPts)
			continue
		}
		ids := make([]string, 0, len(oldPts))
		for id := range oldPts {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			np, ok := newPts[id]
			if !ok {
				fmt.Fprintf(w, "%s: point only in %s: %s\n", sec, oldName, id)
				res.missing++
				continue
			}
			op := oldPts[id]
			for _, metric := range sortedMetrics(op) {
				ov, ook := toFloat(op[metric])
				nv, nok := toFloat(np[metric])
				if !ook || !nok {
					continue
				}
				res.compared++
				delta := relDelta(ov, nv)
				note, report := "", ov != nv
				if wall := metricFields[metric]; wall || clocklessSections[sec] {
					note = "  (clockless)"
					if wall {
						note = "  (wall-clock)"
					}
					report = math.Abs(delta) > threshold
					if report {
						res.wallDiff++
					}
				} else if report {
					res.cycleDiff++
				}
				if report || all {
					fmt.Fprintf(w, "%s: %s\n    %-24s %12.4f → %12.4f   %+7.2f%%%s\n",
						sec, id, metric, ov, nv, delta, note)
				}
			}
		}
		for id := range newPts {
			if _, ok := oldPts[id]; !ok {
				fmt.Fprintf(w, "%s: point only in %s: %s\n", sec, newName, id)
			}
		}
	}
	fmt.Fprintf(w, "%d metrics compared: %d cycle-domain differences, %d old points missing, %d wall-clock beyond ±%g%%\n",
		res.compared, res.cycleDiff, res.missing, res.wallDiff, threshold)
	return res
}

// load reads a bench report as section → raw point list, skipping the
// scalar header fields (schema, quick).
func load(path string) (map[string][]point, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	rep := make(map[string][]point)
	for sec, body := range top {
		var pts []point
		if err := json.Unmarshal(body, &pts); err != nil {
			continue // scalar header field (schema, quick)
		}
		rep[sec] = pts
	}
	return rep, nil
}

// index keys a section's points by identity; nil input stays nil so the
// caller can distinguish a missing section from an empty one.
func index(pts []point) map[string]point {
	if pts == nil {
		return nil
	}
	idx := make(map[string]point, len(pts))
	for _, p := range pts {
		idx[identity(p)] = p
	}
	return idx
}

func sortedMetrics(p point) []string {
	ms := make([]string, 0, len(metricFields))
	for m := range metricFields {
		if _, ok := p[m]; ok {
			ms = append(ms, m)
		}
	}
	sort.Strings(ms)
	return ms
}

func toFloat(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

// relDelta is the percentage change new vs old, defined as 0 when both
// are 0 and +Inf-free when only old is 0.
func relDelta(oldV, newV float64) float64 {
	if oldV == newV {
		return 0
	}
	if oldV == 0 {
		return 100
	}
	return (newV - oldV) / math.Abs(oldV) * 100
}
