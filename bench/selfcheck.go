package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// selfcheck proves the benchmark is quiet enough to be used: it makes
// sets×runs untraced runs of the same code, dealing them to the sets in turn
// (A, B, A, B, …) so every set samples the same stretch of host time, and
// compares the sets' medians per workload and end-to-end metric.  It returns
// a non-zero exit code if any two medians differ by more than the metric's
// bound, or if any run was incorrect.
func (r runner) selfcheck(ws []workload, sets, runs int) int {
	if sets < 2 || runs < 1 {
		fatalf("-selfcheck needs -sets ≥ 2 and -runs ≥ 1")
	}
	// values[set][workload][metric] holds one value per run.
	values := make([]map[string]map[string][]float64, sets)
	for s := range values {
		values[s] = map[string]map[string][]float64{}
	}
	code := 0
	for i := 0; i < sets*runs; i++ {
		set := values[i%sets]
		fmt.Fprintf(os.Stderr, "bench: selfcheck run %d of %d (set %c)\n", i+1, sets*runs, 'A'+i%sets)
		for _, res := range r.measure(ws, false) {
			if !res.correct() {
				fmt.Fprintf(os.Stderr, "bench: %s: incorrect run: %v\n", res.w.name, res.problems)
				code = 1
			}
			if set[res.w.name] == nil {
				set[res.w.name] = map[string][]float64{}
			}
			for name, m := range res.endToEndReadings() {
				set[res.w.name][name] = append(set[res.w.name][name], m.Value)
			}
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tset\tmedian\tq1\tq3\tworst diff\tbound\t\t")
	for _, w := range ws {
		for _, d := range endToEnd {
			worst := 0.0
			for a := 0; a < sets; a++ {
				for b := a + 1; b < sets; b++ {
					ma := summarize(values[a][w.name][d.Name]).Median
					mb := summarize(values[b][w.name][d.Name]).Median
					worst = math.Max(worst, math.Abs(ma-mb)/math.Min(ma, mb))
				}
			}
			verdict := "ok"
			if !(worst <= d.Bound) { // also catches NaN from a set with no values
				verdict, code = "TOO NOISY", 1
			}
			for s := 0; s < sets; s++ {
				sum := summarize(values[s][w.name][d.Name])
				tail := "\t\t\t"
				if s == sets-1 {
					tail = fmt.Sprintf("%.1f%%\t%.0f%%\t%s\t", 100*worst, 100*d.Bound, verdict)
				}
				fmt.Fprintf(tw, "%s\t%s\t%c\t%.6g\t%.6g\t%.6g\t%s\n",
					w.name, d.Name, 'A'+s, sum.Median, sum.Q1, sum.Q3, tail)
			}
		}
	}
	tw.Flush()
	return code
}
