// Command benchpairs runs the repository benchmark (bench/, BENCHMARK.json)
// on another commit and on the working tree in alternating pairs and says,
// for each end-to-end metric, whether the tree gained, regressed, stayed
// within the benchmark's bound or cannot be told apart from the other
// commit.  It is the pairwise comparison a performance claim needs, run the
// way the benchmark's own rules ask:
//
//   - both bench binaries are built once, REF's from a `git archive` of it
//     in a temporary directory and the tree's from bench/, and every run
//     writes its traces and reports into that directory, never under bench/;
//   - pair i runs workload W at seed SEEDS[i mod len], REF first on even
//     pairs and the tree first on odd ones;
//   - a run's value of a metric is the one bench prints in its result line.
//
// Every run is bench's own length, as bench/run.sh runs it.  For each metric
// it prints each side's median and quartiles, the pairs the tree won (ties
// count for neither), and a verdict, the first of these that holds:
//
//   - "failed more" when the tree's runs failed a larger share of their
//     operations than REF's, whatever the metric;
//
//   - "gain" when the tree won at least nine pairs in ten and its median
//     beats REF's by more than the distance between REF's quartiles;
//
//   - "better" when every tree run beats every REF run;
//
//   - "regression" when its median is worse than REF's by more than the
//     metric's bound;
//
//   - "within bound" when REF's quartiles lie closer together than the
//     bound;
//
//   - "unresolved" otherwise — the spread is too wide to tell.
//
//     go run ./cmd/benchpairs -ref HEAD~1 -workload omega_parallel -seeds 11,12 -pairs 10
//     make benchpairs REF=HEAD~1 WORKLOAD=omega_parallel SEEDS=11,12 PAIRS=10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the line bench prints last for a single workload, with the
// digest of the simulated work from the workload's line before it.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	Digest string `json:"-"`
}

func main() {
	ref := flag.String("ref", "HEAD", "the commit the working tree is compared with")
	workload := flag.String("workload", "", "the BENCHMARK.json workload to run (required)")
	seedList := flag.String("seeds", "1", "comma-separated workload seeds, used in turn")
	pairs := flag.Int("pairs", 10, "alternating pairs of runs")
	flag.Parse()
	if err := compare(*ref, *workload, *seedList, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

// compare builds both sides, runs the pairs and prints the table.
func compare(ref, workload, seedList string, pairs int) error {
	if workload == "" || pairs < 1 {
		return fmt.Errorf("need -workload and -pairs >= 1")
	}
	var seeds []string
	for _, s := range strings.Split(seedList, ",") {
		if _, err := strconv.ParseUint(s, 10, 64); err != nil {
			return fmt.Errorf("seed %q: %v", s, err)
		}
		seeds = append(seeds, s)
	}
	metrics, err := endToEnd("BENCHMARK.json")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "benchpairs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bins := map[string]string{"ref": filepath.Join(dir, "ref-bench"), "tree": filepath.Join(dir, "tree-bench")}
	if err := archive(ref, filepath.Join(dir, "ref")); err != nil {
		return err
	}
	for side, src := range map[string]string{"ref": filepath.Join(dir, "ref"), "tree": "."} {
		if err := build(filepath.Join(src, "bench"), bins[side]); err != nil {
			return fmt.Errorf("building %s: %v", side, err)
		}
	}

	runs := map[string][]result{}
	for i := 0; i < pairs; i++ {
		order := []string{"ref", "tree"}
		if i%2 == 1 {
			order = []string{"tree", "ref"}
		}
		for _, side := range order {
			r, err := run(bins[side], filepath.Join(dir, "out-"+side), workload, seeds[i%len(seeds)])
			if err != nil {
				return fmt.Errorf("pair %d, %s: %v", i+1, side, err)
			}
			runs[side] = append(runs[side], r)
			fmt.Fprintf(os.Stderr, "pair %d/%d %-4s seed %s:", i+1, pairs, side, seeds[i%len(seeds)])
			for _, m := range metrics {
				fmt.Fprintf(os.Stderr, " %s %.6g", m.Name, r.Metrics[m.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "; %d ops, %d failed\n", r.Attempted, r.Failed)
		}
	}

	fmt.Printf("%s, %d pairs, seeds %s: %s against the working tree\n", workload, pairs, seedList, ref)
	fmt.Printf("%-12s %-6s %36s   %36s   %5s  %s\n", "metric", "unit", ref+": q1 / median / q3", "tree: q1 / median / q3", "wins", "verdict")
	failedMore := failedShare(runs["tree"]) > failedShare(runs["ref"])
	for _, m := range metrics {
		a, b := values(runs["ref"], m.Name), values(runs["tree"], m.Name)
		qa, qb := quartiles(a), quartiles(b)
		fmt.Printf("%-12s %-6s %11.4g %11.4g %11.4g   %11.4g %11.4g %11.4g   %2d/%-2d  %s\n", m.Name, m.Unit,
			qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], wins(m, a, b), len(a), verdict(m, a, b, failedMore))
	}
	for side, rs := range runs {
		for i, r := range rs {
			if !r.Correct || r.Failed != 0 {
				fmt.Printf("%s run %d: %d of %d operations failed their checks\n", side, i+1, r.Failed, r.Attempted)
			}
		}
	}
	// A pair runs one seed on both sides: a simulated workload does the
	// same work on both unless the change moved the cycle domain.
	same := 0
	for i := range runs["ref"] {
		if a, b := runs["ref"][i].Digest, runs["tree"][i].Digest; a == b {
			same++
		} else {
			fmt.Printf("pair %d: digest %s at %s, %s in the tree\n", i+1, a, ref, b)
		}
	}
	fmt.Printf("digests equal in %d of %d pairs\n", same, len(runs["ref"]))
	return nil
}

// endToEnd reads the end-to-end metrics from the benchmark's manifest.
func endToEnd(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var manifest struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return manifest.EndToEnd, nil
}

// archive extracts commit ref's files into dir.
func archive(ref, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	git := exec.Command("git", "archive", ref)
	tar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := git.StdoutPipe()
	if err != nil {
		return err
	}
	tar.Stdin, git.Stderr, tar.Stderr = pipe, os.Stderr, os.Stderr
	if err := tar.Start(); err != nil {
		return err
	}
	if err := git.Run(); err != nil {
		return fmt.Errorf("git archive %s: %v", ref, err)
	}
	return tar.Wait()
}

// build compiles the bench module in dir to bin, as bench/run.sh does.
func build(dir, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local", "GOWORK=off")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// run runs one bench invocation and returns its result line.
func run(bin, out, workload, seed string) (result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(bin, "-out", out, "-workload", workload, "-seed", seed)
	cmd.Stdout, cmd.Stderr = &stdout, io.Discard
	err := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var r result
	if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil || r.Metrics == nil || len(lines) < 2 {
		return r, fmt.Errorf("no result line (exit: %v)", err)
	}
	var detail struct{ Digest string }
	if jerr := json.Unmarshal(lines[len(lines)-2], &detail); jerr != nil {
		return r, fmt.Errorf("no workload line: %v", jerr)
	}
	r.Digest = detail.Digest
	return r, nil
}

// failedShare is the share of the runs' operations that failed their checks;
// a run that is not correct counts all its operations as failed.
func failedShare(rs []result) float64 {
	var failed, attempted int64
	for _, r := range rs {
		attempted += r.Attempted
		if r.Correct {
			failed += r.Failed
		} else {
			failed += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func values(rs []result, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

// quartiles returns the first quartile, median and third quartile,
// interpolated linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(f float64) float64 {
		x := f * float64(len(s)-1)
		lo := int(math.Floor(x))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{q(0.25), q(0.5), q(0.75)}
}

// better reports whether x is better than y for metric m.
func better(m metric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// wins counts the pairs the tree (b) won over REF (a).
func wins(m metric, a, b []float64) int {
	n := 0
	for i := range a {
		if better(m, b[i], a[i]) {
			n++
		}
	}
	return n
}

// verdict applies the rule in the command comment; failedMore says the
// tree's runs failed a larger share of their operations than REF's.
func verdict(m metric, a, b []float64, failedMore bool) string {
	if failedMore {
		return "failed more"
	}
	qa, qb := quartiles(a), quartiles(b)
	spread := qa[2] - qa[0]
	if 10*wins(m, a, b) >= 9*len(a) && better(m, qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > spread {
		return "gain"
	}
	if separated(m, a, b) {
		return "better"
	}
	limit := qa[1] * (1 + m.Bound)
	if m.Better == "higher" {
		limit = qa[1] * (1 - m.Bound)
	}
	if better(m, limit, qb[1]) {
		return "regression"
	}
	if spread <= m.Bound*math.Abs(qa[1]) {
		return "within bound"
	}
	return "unresolved"
}

// separated reports whether every tree run (b) beats every REF run (a).
func separated(m metric, a, b []float64) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(m, x, y) {
				return false
			}
		}
	}
	return true
}
