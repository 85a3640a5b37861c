package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"text/tabwriter"
	"time"
)

// tracedEpisodes is the default K of the traced run: per workload, this many
// untraced and this many traced episodes, interleaved.
const tracedEpisodes = 4

// episodeTimeout bounds one child process; an episode takes about a second.
const episodeTimeout = 120 * time.Second

// runner measures workloads as sequences of episodes.  spawn runs one
// episode; the real one re-executes this binary so every episode starts from
// a fresh heap and its peak RSS is its own, and tests substitute an
// in-process one.
type runner struct {
	seed     uint64
	episodes int
	outDir   string
	spawn    func(w workload, seed uint64, traced, serial bool) (episode, error)
}

// spawnEpisode runs one episode in a child process and waits for it.
func spawnEpisode(w workload, seed uint64, traced, serial bool) (episode, error) {
	self, err := os.Executable()
	if err != nil {
		return episode{}, err
	}
	args := []string{"-episode", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if serial {
		args = append(args, "-serial")
	}
	ctx, cancel := context.WithTimeout(context.Background(), episodeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return episode{}, fmt.Errorf("episode of %s: %w", w.name, err)
	}
	var e episode
	if err := json.Unmarshal(out.Bytes(), &e); err != nil {
		return episode{}, fmt.Errorf("episode of %s: bad output: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		e.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return e, nil
}

// result is one workload's outcome over a run.
type result struct {
	w        workload
	episodes []episode // untraced
	traced   []episode
	serial   []episode // omega_parallel at Workers 1, traced run only
	problems []string  // anything that makes the run incorrect
}

// measure runs the episodes round-robin — episode i of every workload before
// episode i+1 of any — so each workload samples the whole measuring window
// instead of one contiguous slice of it.
func (r runner) measure(ws []workload, traced bool) []*result {
	results := make([]*result, len(ws))
	for i, w := range ws {
		results[i] = &result{w: w}
	}
	for ep := 0; ep < r.episodes; ep++ {
		for _, res := range results {
			res.run(r, &res.episodes, false, false)
			if traced {
				res.run(r, &res.traced, true, false)
				if res.w.workers > 1 {
					res.run(r, &res.serial, false, true)
				}
			}
		}
	}
	for _, res := range results {
		res.checkDeterminism()
	}
	return results
}

func (res *result) run(r runner, into *[]episode, traced, serial bool) {
	e, err := r.spawn(res.w, r.seed, traced, serial)
	if err != nil {
		// A crashed episode fails every operation it would have attempted;
		// the count is taken from a sibling when the run is summed up.
		res.problems = append(res.problems, err.Error())
		e = episode{Workload: res.w.name, Seed: r.seed, crashed: true}
	}
	for i := range e.Spans {
		e.Spans[i].Episode = len(*into) + 1
	}
	*into = append(*into, e)
}

// checkDeterminism requires every episode of the run — untraced, traced and
// serial alike — to have done identical simulated work.
func (res *result) checkDeterminism() {
	var ref *episode
	for _, group := range []*[]episode{&res.episodes, &res.traced, &res.serial} {
		for i := range *group {
			e := &(*group)[i]
			if e.crashed {
				continue
			}
			res.problems = append(res.problems, e.Failures...)
			if ref == nil {
				ref = e
				continue
			}
			if e.Digest != ref.Digest || e.Ops != ref.Ops {
				res.problems = append(res.problems, fmt.Sprintf(
					"digest mismatch (workers %d vs %d, traced %v vs %v): ops %d vs %d; %v",
					ref.Workers, e.Workers, ref.Traced, e.Traced, ref.Ops, e.Ops,
					diffCounters(ref.Counters, e.Counters)))
				e.Failed = e.Attempted
			}
		}
	}
}

// all returns every episode of the run.
func (res *result) all() []episode {
	return append(append(append([]episode{}, res.episodes...), res.traced...), res.serial...)
}

// totals sums attempted and failed operations over every episode.  A crashed
// episode fails as many operations as a sibling attempted.
func (res *result) totals() (attempted, failed int64) {
	perEpisode := int64(1)
	for _, e := range res.all() {
		perEpisode = max(perEpisode, e.Attempted)
	}
	for _, e := range res.all() {
		if e.crashed {
			e.Attempted, e.Failed = perEpisode, perEpisode
		}
		attempted += e.Attempted
		failed += e.Failed
	}
	return attempted, failed
}

func (res *result) correct() bool {
	_, failed := res.totals()
	return failed == 0 && len(res.problems) == 0
}

// samples extracts one value per episode that ran to the end.
func samples(eps []episode, f func(episode) float64) []float64 {
	var out []float64
	for _, e := range eps {
		if !e.crashed {
			out = append(out, f(e))
		}
	}
	return out
}

// reading is one reported metric: the value that counts plus the spread of
// the per-episode samples behind it.
type reading struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func readingOf(value float64, unit string, s summary) reading {
	return reading{Value: value, Unit: unit, N: s.N, Median: s.Median, Q1: s.Q1, Q3: s.Q3}
}

// endToEndReadings computes the three end-to-end metrics from the untraced
// episodes only.
func (res *result) endToEndReadings() map[string]reading {
	out := map[string]reading{}
	eps := res.episodes
	ops := samples(eps, func(e episode) float64 { return float64(e.Ops) })
	if len(ops) == 0 {
		return out
	}
	timed := summarize(samples(eps, func(e episode) float64 { return e.TimedS }))
	rate := summarize(samples(eps, func(e episode) float64 { return float64(e.Ops) / e.TimedS }))
	out["ops_per_s"] = readingOf(ops[0]/res.w.estimate(timed), "ops/s", rate)
	setup := summarize(samples(eps, func(e episode) float64 { return e.SetupS }))
	out["setup_s"] = readingOf(res.w.estimate(setup), "s", setup)
	rss := summarize(samples(eps, func(e episode) float64 { return e.PeakRSSMB }))
	out["peak_rss_mb"] = readingOf(rss.Mean, "MB", rss)
	return out
}

func (res *result) calib() reading {
	c := summarize(samples(res.all(), func(e episode) float64 { return e.CalibMS }))
	return readingOf(c.Fast, "ms", c)
}

// report is the detailed JSON line printed per workload.
type report struct {
	Workload      string               `json:"workload"`
	Seed          uint64               `json:"seed"`
	Episodes      int                  `json:"episodes"`
	OpsPerEpisode int64                `json:"ops_per_episode"`
	Digest        string               `json:"digest"`
	Correct       bool                 `json:"correct"`
	Attempted     int64                `json:"attempted"`
	Failed        int64                `json:"failed"`
	Problems      []string             `json:"problems,omitempty"`
	Metrics       map[string]reading   `json:"metrics"`
	Calib         reading              `json:"host.calib_ms"`
	Samples       map[string][]float64 `json:"samples"` // per untraced episode, in run order
	NProc         int                  `json:"nproc"`
	GoMaxProcs    int                  `json:"gomaxprocs"`
	Go            string               `json:"go"`
}

func (r runner) reportOf(res *result, metrics map[string]reading) report {
	attempted, failed := res.totals()
	rep := report{
		Workload: res.w.name, Seed: r.seed, Episodes: len(res.episodes),
		Correct: res.correct(), Attempted: attempted, Failed: failed,
		Problems: res.problems, Metrics: metrics, Calib: res.calib(),
		NProc: runtime.NumCPU(), GoMaxProcs: procs(), Go: runtime.Version(),
	}
	for _, e := range res.episodes {
		if !e.crashed {
			rep.OpsPerEpisode, rep.Digest = e.Ops, e.Digest
			break
		}
	}
	rep.Samples = map[string][]float64{
		"timed_s":     samples(res.episodes, func(e episode) float64 { return e.TimedS }),
		"setup_s":     samples(res.episodes, func(e episode) float64 { return e.SetupS }),
		"peak_rss_mb": samples(res.episodes, func(e episode) float64 { return e.PeakRSSMB }),
		"calib_ms":    samples(res.episodes, func(e episode) float64 { return e.CalibMS }),
	}
	return rep
}

// emit prints the reports: a human table on stderr, one detailed JSON line
// per workload on stdout and, when exactly one workload ran, the contract's
// result object as the last line.  It returns the process exit code.
func emit(stdout, stderr io.Writer, reports []report, defs []metricDef) int {
	tw := tabwriter.NewWriter(stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tn\tmedian\tq1\tq3\t")
	code := 0
	for _, rep := range reports {
		for _, d := range defs {
			m := rep.Metrics[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\t%.6g\t%.6g\t%.6g\t\n",
				rep.Workload, d.Name, m.Value, d.Unit, m.N, m.Median, m.Q1, m.Q3)
		}
		if _, listed := rep.Metrics["host.calib_ms"]; !listed {
			fmt.Fprintf(tw, "%s\thost.calib_ms\t%.6g\tms\t%d\t%.6g\t%.6g\t%.6g\t\n",
				rep.Workload, rep.Calib.Value, rep.Calib.N, rep.Calib.Median, rep.Calib.Q1, rep.Calib.Q3)
		}
		if !rep.Correct {
			code = 1
		}
	}
	tw.Flush()
	for _, rep := range reports {
		for _, p := range rep.Problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", rep.Workload, p)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			panic(err) // plain data: cannot fail
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if len(reports) == 1 {
		rep := reports[0]
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		final := struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{rep.Correct, max(rep.Attempted, 1), rep.Failed, map[string]value{}}
		for _, d := range defs {
			final.Metrics[d.Name] = value{rep.Metrics[d.Name].Value, d.Unit}
		}
		line, err := json.Marshal(final)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// untracedRun measures the end-to-end metrics.
func (r runner) untracedRun(ws []workload) int {
	var reports []report
	for _, res := range r.measure(ws, false) {
		reports = append(reports, r.reportOf(res, res.endToEndReadings()))
	}
	return emit(os.Stdout, os.Stderr, reports, endToEnd)
}

// tracedRun measures the per-layer metrics and writes one trace file per
// workload.  End-to-end numbers never come from here.
func (r runner) tracedRun(ws []workload) int {
	var reports []report
	code := 0
	for _, res := range r.measure(ws, true) {
		reports = append(reports, r.reportOf(res, res.layerReadings()))
		if err := r.writeTrace(res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	return max(code, emit(os.Stdout, os.Stderr, reports, perLayer))
}

// layerReadings folds the traced episodes' per-layer values into one reading
// per metric, and adds the two metrics that compare groups of episodes.
func (res *result) layerReadings() map[string]reading {
	out := map[string]reading{}
	for _, d := range perLayer {
		vals := samples(res.traced, func(e episode) float64 { return e.Layer[d.Name] })
		s := summarize(vals)
		v := s.Median
		if d.isTime() {
			v = s.Fast
		}
		out[d.Name] = readingOf(v, d.Unit, s)
	}
	// The shares were summarized one by one; restate the residual from the
	// reported values so that the row a reader sees adds up to the whole.
	if m := out["engine.residual_share"]; m.Value != 0 {
		m.Value = 1
		for _, name := range attributedShares {
			m.Value -= out[name].Value
		}
		out["engine.residual_share"] = m
	}
	timed := func(e episode) float64 { return e.TimedS }
	estimate := func(eps []episode) float64 { return res.w.estimate(summarize(samples(eps, timed))) }
	untraced := estimate(res.episodes)
	if traced := estimate(res.traced); untraced > 0 {
		m := out["trace.overhead_share"]
		m.Value = traced/untraced - 1
		out["trace.overhead_share"] = m
	}
	if serial := estimate(res.serial); untraced > 0 && serial > 0 {
		m := out["par.speedup_vs_serial"]
		m.Value, m.N = serial/untraced, len(res.serial)
		out["par.speedup_vs_serial"] = m
	}
	return out
}

// writeTrace writes the traced episodes' spans to out/trace-<workload>.json.
func (r runner) writeTrace(res *result) error {
	type traceEpisode struct {
		Episode int     `json:"episode"`
		TimedS  float64 `json:"timed_s"`
		Spans   []span  `json:"spans"`
	}
	doc := struct {
		Workload string         `json:"workload"`
		Seed     uint64         `json:"seed"`
		Episodes []traceEpisode `json:"episodes"`
	}{Workload: res.w.name, Seed: r.seed}
	for i, e := range res.traced {
		doc.Episodes = append(doc.Episodes, traceEpisode{i + 1, e.TimedS, e.Spans})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, "trace-"+res.w.name+".json"), data, 0o644)
}
