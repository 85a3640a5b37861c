package main

import (
	"bytes"
	"strings"
	"testing"
)

func compareFiles(t *testing.T, oldPath, newPath string) (result, string) {
	t.Helper()
	oldRep, err := load(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newRep, err := load(newPath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res := compare(&out, oldRep, newRep, "old", "new", 5, false)
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
	if res.cycleDiff != 1 || res.missing != 0 || !res.regressed() {
		t.Errorf("got %+v, want exactly one cycle-domain difference and a failing gate\n%s", res, out)
	}
}

func TestIdenticalFilesPass(t *testing.T) {
	res, out := compareFiles(t, "testdata/old.json", "testdata/old.json")
	if res.regressed() || res.cycleDiff != 0 || res.wallDiff != 0 {
		t.Errorf("identical files: %+v\n%s", res, out)
	}
}

// TestGatePolicy: what fails -fail and what is only reported.
func TestGatePolicy(t *testing.T) {
	base, err := load("testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(rep map[string][]point)
		fails  bool
	}{
		{"wall-clock metric doubles", func(rep map[string][]point) {
			rep["parallel_speedup"][0]["ns_per_cycle"] = 468750.0
		}, false},
		{"clockless combines move", func(rep map[string][]point) {
			rep["asyncnet_faa"][0]["combines"] = 1.0
		}, false},
		{"cycle-domain latency moves in the sixth decimal", func(rep map[string][]point) {
			rep["hotspot_sweep"][1]["mean_latency_cycles"] = 40.500001
		}, true},
		{"old point missing from the new file", func(rep map[string][]point) {
			rep["hotspot_sweep"] = rep["hotspot_sweep"][:1]
		}, true},
		{"old section missing from the new file", func(rep map[string][]point) {
			delete(rep, "parallel_speedup")
		}, true},
		{"new file grows a section", func(rep map[string][]point) {
			rep["extra"] = []point{{"procs": 4.0, "combines": 1.0}}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			changed, err := load("testdata/old.json")
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(changed)
			var out bytes.Buffer
			if got := compare(&out, base, changed, "old", "new", 5, false).regressed(); got != tc.fails {
				t.Errorf("regressed = %v, want %v\n%s", got, tc.fails, out.String())
			}
		})
	}
}
