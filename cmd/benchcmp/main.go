// Command benchcmp compares two BENCH_combining.json baselines
// (combining-bench/v2).  The file says what is what: a point's "params" are
// its identity, every number in its "results" and its "digest" are
// cycle-domain — deterministic for equal params — so points are matched
// across the files by params and any difference at all is printed as
// old → new.
//
// Usage:
//
//	benchcmp [-all] [-fail] old.json new.json
//
// -all prints every matched value, not just the changes.  -fail makes the
// comparison a regression gate: exit status 1 iff a value differs, or a
// point, a section or a results key of the old file is missing from the new
// one.
//
//	go run ./cmd/experiments -bench -out /tmp/new.json
//	go run ./cmd/benchcmp -fail BENCH_combining.json /tmp/new.json
//
// What only the new file has (a new section, a new cell, a new results key)
// is listed and never fails the comparison — growth is expected.  A file of
// another schema, or one with a section that does not parse, is exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
)

const schema = "combining-bench/v2"

// point is one entry of a section, as cmd/experiments -bench writes it.
type point struct {
	Params  map[string]any     `json:"params"`
	Results map[string]float64 `json:"results"`
	Digest  string             `json:"digest"`
}

// identity renders a point's params as a stable "k=v k=v" key.
func identity(p point) string {
	parts := make([]string, 0, len(p.Params))
	for _, k := range slices.Sorted(maps.Keys(p.Params)) {
		parts = append(parts, fmt.Sprintf("%s=%v", k, p.Params[k]))
	}
	return strings.Join(parts, " ")
}

func main() {
	all := flag.Bool("all", false, "print every matched value, not just the changes")
	failOn := flag.Bool("fail", false, "exit with status 1 if a value differs or something in the old file is missing")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-all] [-fail] old.json new.json")
		os.Exit(2)
	}
	var reps [2]map[string][]point
	for i := range reps {
		rep, err := load(flag.Arg(i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
			os.Exit(2)
		}
		reps[i] = rep
	}
	res := compare(os.Stdout, reps[0], reps[1], flag.Arg(0), flag.Arg(1), *all)
	if *failOn && res.regressed() {
		os.Exit(1)
	}
}

// result tallies one comparison.
type result struct {
	compared int // values diffed: results keys and digests
	diffs    int // values that differ, and old results keys the new point lacks
	missing  int // old points with no counterpart in the new file
}

// regressed is the -fail verdict.
func (r result) regressed() bool { return r.diffs > 0 || r.missing > 0 }

// compare diffs two reports onto w; oldName and newName label what only one
// side has.
func compare(w io.Writer, oldRep, newRep map[string][]point, oldName, newName string, all bool) result {
	var res result
	for _, sec := range slices.Sorted(maps.Keys(oldRep)) {
		newList, ok := newRep[sec]
		if !ok {
			fmt.Fprintf(w, "%s: section only in %s (%d points)\n", sec, oldName, len(oldRep[sec]))
			res.missing += len(oldRep[sec])
			continue
		}
		newPts := make(map[string]point, len(newList))
		for _, p := range newList {
			newPts[identity(p)] = p
		}
		seen := make(map[string]bool, len(oldRep[sec]))
		for _, op := range oldRep[sec] {
			id := identity(op)
			seen[id] = true
			np, ok := newPts[id]
			if !ok {
				fmt.Fprintf(w, "%s: point only in %s: %s\n", sec, oldName, id)
				res.missing++
				continue
			}
			for _, k := range slices.Sorted(maps.Keys(op.Results)) {
				ov := op.Results[k]
				nv, ok := np.Results[k]
				if !ok {
					fmt.Fprintf(w, "%s: %s\n    %-24s only in %s\n", sec, id, k, oldName)
					res.diffs++
					continue
				}
				res.compared++
				if ov != nv {
					res.diffs++
				}
				if ov != nv || all {
					fmt.Fprintf(w, "%s: %s\n    %-24s %12.4f → %12.4f   %+7.2f%%\n", sec, id, k, ov, nv, relDelta(ov, nv))
				}
			}
			for _, k := range slices.Sorted(maps.Keys(np.Results)) {
				if _, ok := op.Results[k]; !ok {
					fmt.Fprintf(w, "%s: %s\n    %-24s only in %s\n", sec, id, k, newName)
				}
			}
			res.compared++
			if op.Digest != np.Digest {
				res.diffs++
			}
			if op.Digest != np.Digest || all {
				fmt.Fprintf(w, "%s: %s\n    %-24s %s → %s\n", sec, id, "digest", op.Digest, np.Digest)
			}
		}
		for _, p := range newList {
			if id := identity(p); !seen[id] {
				fmt.Fprintf(w, "%s: point only in %s: %s\n", sec, newName, id)
			}
		}
	}
	for _, sec := range slices.Sorted(maps.Keys(newRep)) {
		if _, ok := oldRep[sec]; !ok {
			fmt.Fprintf(w, "%s: section only in %s (%d points)\n", sec, newName, len(newRep[sec]))
		}
	}
	fmt.Fprintf(w, "%d values compared: %d cycle-domain differences, %d old points missing\n",
		res.compared, res.diffs, res.missing)
	return res
}

// load reads a bench report as section → points.  The schema must be the one
// this command understands and every other top-level key must be a list of
// points: guessing at anything else is how a stale or mistyped baseline
// would pass.
func load(path string) (map[string][]point, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	var got string
	if err := json.Unmarshal(top["schema"], &got); err != nil || got != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q (regenerate it with `make bench`)", path, got, schema)
	}
	delete(top, "schema")
	rep := make(map[string][]point, len(top))
	for sec, body := range top {
		var pts []point
		if err := json.Unmarshal(body, &pts); err != nil {
			return nil, fmt.Errorf("%s: section %s: %v", path, sec, err)
		}
		rep[sec] = pts
	}
	return rep, nil
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
