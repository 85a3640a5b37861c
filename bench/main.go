// Command bench is the repo's benchmark: seven fixed-work workloads over the
// combining engines and pkg/sync, each measured as K identical episodes in
// child processes, with a separate traced run that prices every layer.  See
// README.md in this directory for the design and the measured noise that
// motivated it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// procs is the thread budget of every episode: min(2, nproc).  The only
// concurrency is inside a workload, and it never exceeds the CPUs present.
func procs() int { return min(2, runtime.NumCPU()) }

// episodesFor turns the contract's --seconds into an episode count.  Episodes
// are fixed work of about 0.75 s each (timed part, set-up, calibration,
// process start), so a run of K episodes measures for about 0.75·K seconds;
// K never drops below 16, the fewest the fastest-quarter estimator was
// validated with, and is never raised past 32.
func episodesFor(seconds int) int {
	return min(max(seconds*4/3, 16), 32)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all, round-robin)")
		seed         = flag.Uint64("seed", 1, "workload seed; the only workload argument")
		seconds      = flag.Int("seconds", 12, "nominal measuring time of one run; sets the episode count")
		trace        = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		outDir       = flag.String("out", "bench/out", "directory for traces and reports")
		selfcheck    = flag.Bool("selfcheck", false, "run alternating sets of runs and compare their medians against the bounds")
		sets         = flag.Int("sets", 2, "selfcheck: number of sets")
		runs         = flag.Int("runs", 5, "selfcheck: runs per set")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		child        = flag.Bool("episode", false, "internal: run one episode in this process and print it")
		serial       = flag.Bool("serial", false, "internal: with -episode, step the machine with Workers 1")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatalf("GOMAXPROCS %d exceeds nproc %d: refusing to measure oversubscribed", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}

	selected := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatalf("%v", err)
		}
		selected = []workload{w}
	}

	if *child {
		w := selected[0]
		if len(selected) != 1 {
			fatalf("-episode needs -workload")
		}
		if *serial {
			w.workers = 1
		}
		e := runEpisode(w, *seed, *trace == 1)
		if err := json.NewEncoder(os.Stdout).Encode(e); err != nil {
			fatalf("write episode: %v", err)
		}
		return
	}

	k := episodesFor(*seconds)
	if *trace == 1 {
		k = tracedEpisodes
	}
	r := runner{seed: *seed, episodes: k, outDir: *outDir, spawn: spawnEpisode}
	switch {
	case *selfcheck:
		os.Exit(r.selfcheck(selected, *sets, *runs))
	case *trace == 1:
		os.Exit(r.tracedRun(selected))
	default:
		os.Exit(r.untracedRun(selected))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
