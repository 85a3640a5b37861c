// Histogram: parallel scatter-add through the combining network.
//
// Eight processors bin a data stream by fetch-and-adding into a shared
// bucket array, each running a straight-line program over its share of the
// data on the cycle-accurate Omega machine.  Skewed data makes some buckets
// hot — the exact situation the paper's combining mechanism targets:
// concurrent increments of a popular bucket merge in the network instead of
// serializing at memory.  The run is a function of the data, so the combine
// count is the same on every run.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"strings"

	combining "combining"
)

func main() {
	const (
		workers = 8
		items   = 4000
		buckets = 16
	)
	// A skewed (roughly geometric) distribution: bucket 0 is hot.
	data := make([]int, items)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range data {
		b := 0
		for b < buckets-1 && rng.IntN(2) == 0 {
			b++
		}
		data[i] = b
	}

	chunk := items / workers
	progs := make([][]combining.Instr, workers)
	for w := range progs {
		for _, b := range data[w*chunk : (w+1)*chunk] {
			progs[w] = append(progs[w], combining.RMW(combining.Addr(b), combining.FetchAdd(1)))
		}
	}
	// The invariant battery runs the programs to completion and checks every
	// reply against a serialization of the bucket's increments.
	_, eng, counters, err := combining.CheckBattery("omega",
		combining.WiringConfig{Procs: workers, WaitBufCap: combining.Unbounded}, progs, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}

	// Verify against a sequential count and display.
	want := make([]int64, buckets)
	for _, b := range data {
		want[b]++
	}
	fmt.Println("bucket  count")
	ok := true
	for b := 0; b < buckets; b++ {
		got := eng.Memory().Peek(combining.Addr(b)).Val
		bar := strings.Repeat("█", int(got)/25)
		fmt.Printf("  %2d  %6d  %s\n", b, got, bar)
		ok = ok && got == want[b]
	}
	fmt.Printf("\nmatches the sequential histogram: %v\n", ok)
	fmt.Printf("combining events while binning: %d of %d increments\n",
		counters["combines"], items)
}
