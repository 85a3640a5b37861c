package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"syscall"
	"time"

	"combining/internal/stats"
)

// episode is what one child process (or one in-process call, in tests)
// reports: fixed work done once, how long it took, and whether every
// correctness check held.
type episode struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Workers    int    `json:"workers"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// Ops is the operations completed inside the timed part — exact and
	// identical in every episode of a run.  Attempted is every operation
	// issued over the whole episode (warm-up, timed part and drain); Failed
	// is how many of them a correctness check rejected.
	Ops       int64    `json:"ops"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	TimedS  float64 `json:"timed_s"`
	SetupS  float64 `json:"setup_s"`
	CalibMS float64 `json:"calib_ms"`

	// Digest hashes Counters and the latency histogram after the drain; the
	// runner requires it equal across a run's episodes.
	Digest   string           `json:"digest"`
	Counters map[string]int64 `json:"counters"`

	// Layer holds this episode's per-layer metrics, by final metric name
	// (traced episodes only).  Spans is its trace.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`

	// PeakRSSMB is filled by the runner from the child's ru_maxrss; crashed
	// marks an episode whose process died or printed nothing usable.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	crashed   bool
}

// fail records a failed check covering n operations.
func (e *episode) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	e.Failed += n
	e.Failures = append(e.Failures, fmt.Sprintf(format, args...))
}

// failAll marks the whole episode failed: a stalled, undrained or crashed
// episode has no operation whose result can be trusted.
func (e *episode) failAll(format string, args ...any) {
	e.Failed = e.Attempted
	e.Failures = append(e.Failures, fmt.Sprintf(format, args...))
}

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around its calls into the repo.  Times are
// nanoseconds since the episode started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = the episode root
	Episode int    `json:"episode"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps an episode's spans in memory.  A nil *tracer records nothing,
// so untraced episodes run the same code path with one nil check per span
// (a dozen per episode, none inside a timed region).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.spans = append(t.spans, span{ID: 1, Name: "episode"})
	return t
}

// begin opens a span under parent (0 for the root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	if parent == 0 {
		parent = 1
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// finish closes the root span and returns everything recorded.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.end(1)
	return t.spans
}

// dur returns the summed duration of the spans called name, in seconds.
func (t *tracer) dur(name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// digest hashes a snapshot's counters (sorted by key) and its round-trip
// latency histogram.  Two episodes of the same workload and seed must agree
// on it; so must Workers 1 and Workers 2 of the same machine.
func digest(snap stats.Snapshot) string {
	h := fnv.New64a()
	keys := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, snap.Counters[k])
	}
	lat := snap.Histograms["latency_cycles"]
	fmt.Fprintf(h, "lat=%d,%d,%d,%v", lat.Count, lat.Sum, lat.Max, lat.Buckets)
	return fmt.Sprintf("%016x", h.Sum64())
}

// diffCounters lists the keys on which two counter maps differ.
func diffCounters(a, b map[string]int64) []string {
	seen := map[string]bool{}
	var out []string
	for k, v := range a {
		seen[k] = true
		if b[k] != v {
			out = append(out, fmt.Sprintf("%s: %d vs %d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if !seen[k] {
			out = append(out, fmt.Sprintf("%s: absent vs %d", k, v))
		}
	}
	sort.Strings(out)
	return out
}

// calibKernel is a fixed, repo-independent integer and random-access
// kernel: a xorshift walk over a 4 MiB table.  Its time says how fast the
// host was just before an episode; it is reported as host.calib_ms and never
// folded into a metric.
func calibKernel() float64 {
	const words = 1 << 19
	table := make([]uint64, words)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	t0 := time.Now()
	idx := uint64(1)
	var acc uint64
	for i := 0; i < 1<<21; i++ {
		v := table[idx&(words-1)]
		acc += v
		idx = idx*6364136223846793005 + v
	}
	d := time.Since(t0)
	calibSink = acc
	return float64(d) / 1e6
}

var calibSink uint64

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// memCounters reads the cumulative allocation counters.
func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// runEpisode runs one episode of w in this process.
func runEpisode(w workload, seed uint64, traced bool) episode {
	e := episode{
		Workload:   w.name,
		Seed:       seed,
		Traced:     traced,
		Workers:    w.workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CalibMS:    calibKernel(),
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		e.Layer = map[string]float64{}
		for _, d := range perLayer {
			e.Layer[d.Name] = 0 // a metric the workload does not exercise reads 0
		}
	}
	var run *simRun
	if w.kind == kindSynclib {
		runSyncEpisode(&e, w, tr)
	} else {
		run = runSimEpisode(&e, w, tr)
	}
	e.Failed = min(e.Failed, e.Attempted)
	if traced {
		sp := tr.begin("probes", 0)
		p := runProbes(w, seed)
		tr.end(sp)
		layerMetrics(&e, w, run, p, tr)
	}
	e.Spans = tr.finish()
	return e
}
