package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

// scaled returns the workload at 1/div of its size; the machine itself is
// unchanged.
func (w workload) scaled(div int) workload {
	w.warm = max(w.warm/div, 1)
	w.timed = max(w.timed/div, 1)
	return w
}

// inProcess runs an episode in the test process at 1/20 of its size.
func inProcess(w workload, seed uint64, traced, serial bool) (episode, error) {
	if serial {
		w.workers = 1
	}
	e := runEpisode(w.scaled(20), seed, traced)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	return e, nil
}

func TestEstimator(t *testing.T) {
	// Eight samples: the fastest quarter is the two smallest.
	s := summarize([]float64{8, 1, 7, 2, 6, 3, 5, 4})
	want := summary{N: 8, Fast: 1.5, Median: 4.5, Q1: 2.75, Q3: 6.25, Mean: 4.5}
	if s != want {
		t.Errorf("summarize(1..8) = %+v, want %+v", s, want)
	}
	// K not divisible by 4: six samples average the fastest two, five the
	// fastest two, three the fastest one.
	for _, c := range []struct {
		in   []float64
		fast float64
	}{
		{[]float64{10, 20, 30, 40, 50, 60}, 15},
		{[]float64{50, 40, 30, 20, 10}, 15},
		{[]float64{3, 2, 1}, 1},
		{[]float64{7}, 7},
	} {
		if got := summarize(c.in).Fast; got != c.fast {
			t.Errorf("fastest quarter of %v = %v, want %v", c.in, got, c.fast)
		}
	}
	if got := summarize([]float64{10, 20, 30, 40, 50}); got.Median != 30 || got.Q1 != 20 || got.Q3 != 40 {
		t.Errorf("quartiles of 10..50 = %+v", got)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("summarize reordered its input: %v", in)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q has characters outside [A-Za-z0-9_.-] or is too long", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if why := w.why + "; closed loop, " + w.clients(); len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("%s: why is %d characters", w.name, len(why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	if k := episodesFor(runSeconds); k != 16 {
		t.Errorf("episodesFor(%d) = %d, want 16", runSeconds, k)
	}
}

// finalLine parses the last line of an emit: the contract's result object.
func finalLine(t *testing.T, out []byte) (correct bool, attempted, failed int64, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &doc); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(doc) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", doc)
	}
	for key, into := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(doc[key], into); err != nil {
			t.Errorf("result key %q: %v", key, err)
		}
	}
	return
}

// TestWorkloadsSmall runs every workload at 1/20 size, two episodes each,
// untraced and traced, and checks what the full benchmark promises: all
// correctness checks pass, episodes are digest-identical (Workers 2 equal to
// Workers 1 included), and every metric of BENCHMARK.json is reported with
// its unit.
func TestWorkloadsSmall(t *testing.T) {
	r := runner{seed: 1, episodes: 2, outDir: t.TempDir(), spawn: inProcess}

	for _, res := range r.measure(workloads, false) {
		if !res.correct() {
			t.Errorf("%s: %v", res.w.name, res.problems)
		}
		if len(res.episodes) != 2 || res.episodes[0].Digest != res.episodes[1].Digest || res.episodes[0].Digest == "" {
			t.Errorf("%s: episodes %d, digests %q vs %q", res.w.name, len(res.episodes), res.episodes[0].Digest, res.episodes[1].Digest)
		}
		var stdout, stderr bytes.Buffer
		if code := emit(&stdout, &stderr, []report{r.reportOf(res, res.endToEndReadings())}, endToEnd); code != 0 {
			t.Errorf("%s: exit code %d", res.w.name, code)
		}
		correct, attempted, failed, metrics := finalLine(t, stdout.Bytes())
		if !correct || attempted < 1 || failed != 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", res.w.name, correct, attempted, failed)
		}
		if len(metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", res.w.name, len(metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m := metrics[d.Name]; m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s/%s = %v %q, want a positive value in %q", res.w.name, d.Name, m.Value, m.Unit, d.Unit)
			}
		}
	}

	for _, res := range r.measure(workloads, true) {
		if !res.correct() {
			t.Errorf("%s traced: %v", res.w.name, res.problems)
		}
		if res.w.workers > 1 && (len(res.serial) != 2 || res.serial[0].Digest != res.episodes[0].Digest) {
			t.Errorf("%s: Workers 1 digest differs from Workers %d", res.w.name, res.w.workers)
		}
		if err := r.writeTrace(res); err != nil {
			t.Error(err)
		}
		var stdout, stderr bytes.Buffer
		emit(&stdout, &stderr, []report{r.reportOf(res, res.layerReadings())}, perLayer)
		_, _, _, metrics := finalLine(t, stdout.Bytes())
		if len(metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", res.w.name, len(metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s/%s = %v %q (reported %v), want a finite value in %q", res.w.name, d.Name, m.Value, m.Unit, ok, d.Unit)
			}
		}
		// The attributed host-time shares of each traced episode lie in
		// [0, 1] and, with the residual, add up to the whole.
		for _, e := range res.traced {
			sum := 0.0
			for _, name := range append([]string{"engine.residual_share"}, attributedShares...) {
				v := e.Layer[name]
				if v < 0 || v > 1 {
					t.Errorf("%s/%s = %v, want a share in [0, 1]", res.w.name, name, v)
				}
				sum += v
			}
			if res.w.kind != kindSynclib && math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: attributed shares and the residual sum to %v, want 1", res.w.name, sum)
			}
		}
	}
	if _, err := os.Stat(r.outDir + "/trace-omega_hotspot.json"); err != nil {
		t.Error(err)
	}
}
