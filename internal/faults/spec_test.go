package faults

import (
	"reflect"
	"strings"
	"testing"
)

// TestPlanSpecRoundTrip pins that EncodePlan and ParsePlan invert exactly
// on the plans that actually travel as specs: the canned adversarial
// plan, a generated crash schedule, and a hand-built plan exercising
// every field including windows and the canary.
func TestPlanSpecRoundTrip(t *testing.T) {
	full := &Plan{
		Seed: 99, DropFwd: 0.01, DropRev: 0.002,
		Reorder: 0.05, ReorderMax: 8, Dup: 0.02, Corrupt: 0.015,
		Canary: "nodedup", RetryTimeout: 256, RetryCap: 12, CheckpointEvery: 64,
		Stalls:      []Window{{Stage: -1, Index: 2, From: 100, To: 180}},
		MemStalls:   []Window{{Stage: -1, Index: 0, From: 40, To: 90}, {Stage: -1, Index: 3, From: 500, To: 560}},
		Crashes:     []Window{{Stage: 0, Index: 1, From: 200, To: 300}},
		MemCrashes:  []Window{{Stage: -1, Index: 1, From: 700, To: 790}},
		LinkCrashes: []Window{{Stage: 1, Index: 0, From: 1000, To: 1100}},
	}
	for name, p := range map[string]*Plan{
		"zero":        {},
		"adversarial": DefaultAdversarial(7),
		"crash":       GenCrashPlan(13, 2, 4000, 80),
		"full":        full,
	} {
		spec := EncodePlan(p)
		back, err := ParsePlan(spec)
		if err != nil {
			t.Errorf("%s: ParsePlan(%q): %v", name, spec, err)
			continue
		}
		if !reflect.DeepEqual(p, back) {
			t.Errorf("%s: round trip changed the plan\nspec: %s\nin:   %+v\nout:  %+v", name, spec, p, back)
		}
	}
}

// TestPlanSpecOmitsZeroFields pins the compactness contract: zero-valued
// fields never appear, so shrunk reproducers shrink textually too.
func TestPlanSpecOmitsZeroFields(t *testing.T) {
	spec := EncodePlan(&Plan{Seed: 5, Dup: 0.02})
	if spec != "seed=5,dup=0.02" {
		t.Errorf("spec %q, want \"seed=5,dup=0.02\"", spec)
	}
}

// TestParsePlanErrors pins the one-line rejection of malformed specs —
// these are the messages a user sees when a hand-edited reproducer goes
// wrong, so each failure mode must name the offending entry.
func TestParsePlanErrors(t *testing.T) {
	for spec, wantSubstr := range map[string]string{
		"":                         "empty plan spec",
		"   ":                      "empty plan spec",
		"seed":                     "not key=value",
		"seed=5,bogus=1":           "unknown plan spec key",
		"seed=5,canary=nodedupe":   "unknown canary (want nodedup)",
		"canary=":                  "unknown canary",
		"dup=1.5":                  "probability outside [0, 1)",
		"corrupt=-0.1":             "probability outside [0, 1)",
		"dropfwd=NaN":              "probability outside [0, 1)",
		"reorder=abc":              "reorder",
		"retry=-5":                 "must be >= 0",
		"stalls=1:2:3":             "not stage:index:from:to",
		"crashes=1:2:three:4":      "non-numeric",
		"stalls=-1:0:200:100":      "ends before it starts",
		"seed=1,stalls=0:0:5:9+xx": "not stage:index:from:to",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a malformed spec", spec)
		} else if !strings.Contains(err.Error(), wantSubstr) {
			t.Errorf("ParsePlan(%q) error %q, want mention of %q", spec, err, wantSubstr)
		}
	}
}
