package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

func mustLoad(t *testing.T, path string) map[string][]point {
	t.Helper()
	rep, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func compareFiles(t *testing.T, oldPath, newPath string) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res := compare(&out, mustLoad(t, oldPath), mustLoad(t, newPath), "old", "new", false)
	return res, out.String()
}

// TestCycleMetricIsNotIdentity: two files whose only difference is one
// cycle-domain value.  The point must still match across the files and the
// value print as old → new — when metrics were folded into a point's
// identity the same pair printed as two one-sided points, which never
// fail — and the gate must trip on that single difference.
func TestCycleMetricIsNotIdentity(t *testing.T) {
	res, out := compareFiles(t, "testdata/old.json", "testdata/combines_moved.json")
	if strings.Contains(out, "point only in") {
		t.Errorf("a cycle-domain change split the point in two:\n%s", out)
	}
	if !strings.Contains(out, "32566.0000 →   32053.0000") {
		t.Errorf("the moved combines value is not reported as old → new:\n%s", out)
	}
	if res.diffs != 1 || res.missing != 0 || !res.regressed() {
		t.Errorf("got %+v, want exactly one cycle-domain difference and a failing gate\n%s", res, out)
	}
}

func TestIdenticalFilesPass(t *testing.T) {
	res, out := compareFiles(t, "testdata/old.json", "testdata/old.json")
	if res.regressed() || res.diffs != 0 || res.compared == 0 {
		t.Errorf("identical files: %+v\n%s", res, out)
	}
}

// TestGatePolicy: what fails -fail and what is only reported.  A value that
// moves must print as old → new on a matched point, whatever its name: the
// file's structure, not a table of field names here, says it is a result.
func TestGatePolicy(t *testing.T) {
	base := mustLoad(t, "testdata/old.json")
	for _, tc := range []struct {
		name   string
		mutate func(rep map[string][]point)
		fails  bool
		prints string
	}{
		{"cycle-domain latency moves in the sixth decimal", func(rep map[string][]point) {
			rep["hotspot_sweep"][1].Results["mean_latency_cycles"] = 40.500001
		}, true, "→"},
		{"retries moves by one", func(rep map[string][]point) {
			rep["degradation_curve"][0].Results["retries"]++
		}, true, "2345.0000 →    2346.0000"},
		{"digest moves", func(rep map[string][]point) {
			rep["degradation_curve"][0].Digest = "00000000000000b2"
		}, true, "00000000000000b1 → 00000000000000b2"},
		{"results key missing from the new file", func(rep map[string][]point) {
			delete(rep["degradation_curve"][0].Results, "dedup_hits")
		}, true, "only in old"},
		{"old point missing from the new file", func(rep map[string][]point) {
			rep["hotspot_sweep"] = rep["hotspot_sweep"][:1]
		}, true, "point only in old"},
		{"old section missing from the new file", func(rep map[string][]point) {
			delete(rep, "degradation_curve")
		}, true, "section only in old"},
		{"new file grows a section", func(rep map[string][]point) {
			rep["extra"] = []point{{Params: map[string]any{"procs": 4.0}, Results: map[string]float64{"combines": 1}}}
		}, false, "section only in new"},
		{"new file grows a results key", func(rep map[string][]point) {
			rep["hotspot_sweep"][0].Results["rejects"] = 3
		}, false, "only in new"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			changed := mustLoad(t, "testdata/old.json")
			tc.mutate(changed)
			var out bytes.Buffer
			if got := compare(&out, base, changed, "old", "new", false).regressed(); got != tc.fails {
				t.Errorf("regressed = %v, want %v\n%s", got, tc.fails, out.String())
			}
			if !strings.Contains(out.String(), tc.prints) {
				t.Errorf("output lacks %q:\n%s", tc.prints, out.String())
			}
			if strings.Contains(tc.prints, "→") && strings.Contains(out.String(), "point only in") {
				t.Errorf("a moved value split the point in two:\n%s", out.String())
			}
		})
	}

	// Files the comparison must refuse outright (main exits 2 on a load
	// error) instead of reporting every point of the other side missing.
	for _, tc := range []struct{ name, path, want string }{
		{"schema v1 against v2", "testdata/v1.json", `schema "combining-bench/v1", want "combining-bench/v2"`},
		{"section that fails to parse", "testdata/bad_section.json", "section hotspot_sweep"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := load(tc.path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("load(%s) = %v, want an error naming %q", tc.path, err, tc.want)
			}
		})
	}
}

// TestCommittedBaseline holds the committed BENCH_combining.json to what
// cmd/experiments -bench writes today, so a stale or half-regenerated
// baseline fails `go test ./...` and not just CI's `make benchcmp`.
func TestCommittedBaseline(t *testing.T) {
	const path = "../../BENCH_combining.json"
	rep := mustLoad(t, path) // schema v2, every section a list of points
	sections := []string{
		"adversarial_degradation", "bursty_sweep", "degradation_curve", "hotspot_sweep",
		"permutation_baselines", "recovery_curve", "rme_acquire_latency", "saturation_curve",
		"topology_sweep", "zipf_sweep",
	}
	if got := slices.Sorted(maps.Keys(rep)); strings.Join(got, " ") != strings.Join(sections, " ") {
		t.Errorf("sections %v, want %v", got, sections)
	}
	total := 0
	for sec, pts := range rep {
		ids := make(map[string]bool, len(pts))
		for _, p := range pts {
			id := identity(p)
			if id == "" || ids[id] {
				t.Errorf("%s: identity %q is empty or repeated", sec, id)
			}
			ids[id] = true
			if p.Digest == "" || len(p.Results) == 0 {
				t.Errorf("%s: %s: no digest or no results", sec, id)
			}
		}
		total += len(pts)
	}
	if total != 82 {
		t.Errorf("%d points, want 82", total)
	}

	// No wall-clock key at any depth: this file is the cycle domain's.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if s, ok := tok.(string); ok && (s == "host_cpus" || s == "elapsed_ns" || s == "ops_per_sec" || strings.HasPrefix(s, "ns_per_")) {
			t.Errorf("wall-clock key %q in the cycle-domain baseline", s)
		}
	}

	var out bytes.Buffer
	if res := compare(&out, rep, rep, "a", "b", false); res.regressed() || res.compared == 0 {
		t.Errorf("the file against itself: %+v\n%s", res, out.String())
	}
}
