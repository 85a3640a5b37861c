// Command trace runs a small combining scenario on the cycle-accurate
// simulator with event tracing and prints the full life of every request:
// injection, combining (with the wait-buffer ids), the single memory
// access, the decombining fan-out, and delivery — Figure 1 observed on a
// live machine.  The scenario is a program set (each processor issues its
// fetch-and-adds back to back) run through the invariant battery, whose
// verdict is the last line: the replies form an exact serialization.
//
// Usage: trace [-n 8] [-per 2] [-addr 5]
package main

import (
	"flag"
	"fmt"
	"os"

	combining "combining"
)

func main() {
	n := flag.Int("n", 8, "processors (power of two)")
	per := flag.Int("per", 2, "fetch-and-adds per processor")
	addr := flag.Uint("addr", 5, "target address")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "trace: "+format+"\n", args...)
		os.Exit(2)
	}
	if *per < 1 {
		fail("-per must be ≥ 1, got %d", *per)
	}
	if uint(combining.Addr(*addr)) != *addr {
		fail("-addr must fit the 32-bit address space, got %d", *addr)
	}
	log := &combining.NetTraceLog{}
	cfg := combining.WiringConfig{Procs: *n, WaitBufCap: combining.Unbounded, Trace: log.Record}
	if _, err := combining.NewWiring("omega", cfg); err != nil {
		fail("%v", err)
	}
	progs := make([][]combining.Instr, *n)
	for p := range progs {
		for r := 0; r < *per; r++ {
			progs[p] = append(progs[p], combining.RMW(combining.Addr(*addr), combining.FetchAdd(1)))
		}
	}
	_, eng, _, err := combining.CheckBattery("omega", cfg, progs, 10000)

	for _, e := range log.Events {
		fmt.Println(e)
	}
	st := eng.Totals()
	fmt.Printf("\n%d requests issued; %d combines; memory saw %d accesses; final value %d\n",
		st.Issued, st.Combines, st.MemRequests, eng.Memory().Peek(combining.Addr(*addr)).Val)
	fmt.Printf("replies form the exact serialization 0..%d: %v\n", *n**per-1, err == nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}
