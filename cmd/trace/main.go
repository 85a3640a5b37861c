// Command trace runs a small combining scenario on the cycle-accurate
// simulator with event tracing and prints the full life of every request:
// injection, combining (with the wait-buffer ids), the single memory
// access, the decombining fan-out, and delivery — Figure 1 observed on a
// live machine.
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
	log := &combining.NetTraceLog{}
	cfg := combining.NetConfig{Procs: *n, WaitBufCap: combining.Unbounded, Trace: log.Record}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}
	inj := make([]combining.Injector, *n)
	scripts := make([]*scriptInjector, *n)
	id := 1
	for p := 0; p < *n; p++ {
		scripts[p] = &scriptInjector{}
		for r := 0; r < *per; r++ {
			scripts[p].script = append(scripts[p].script, combining.Injection{
				Req: combining.NewRequest(combining.ReqID(id), combining.Addr(*addr),
					combining.FetchAdd(1), combining.ProcID(p)),
			})
			id++
		}
		inj[p] = scripts[p]
	}
	sim := combining.NewSim(cfg, inj)
	want := int64(*n * *per)
	for c := 0; c < 10000; c++ {
		sim.Step()
		if sim.Totals().Issued == want && sim.InFlight() == 0 {
			break
		}
	}

	for _, e := range log.Events {
		fmt.Println(e)
	}
	st := sim.Totals()
	fmt.Printf("\n%d requests issued; %d combines; memory saw %d accesses; final value %d\n",
		st.Issued, st.Combines, st.MemRequests, sim.Memory().Peek(combining.Addr(*addr)).Val)
	vals := map[int64]bool{}
	for _, s := range scripts {
		for _, r := range s.replies {
			vals[r.Val.Val] = true
		}
	}
	ok := true
	for i := 0; i < *n**per; i++ {
		ok = ok && vals[int64(i)]
	}
	fmt.Printf("replies form the exact serialization 0..%d: %v\n", *n**per-1, ok)
}

type scriptInjector struct {
	script  []combining.Injection
	next    int
	replies []combining.Reply
}

func (s *scriptInjector) Next(int64) (combining.Injection, bool) {
	if s.next >= len(s.script) {
		return combining.Injection{}, false
	}
	inj := s.script[s.next]
	s.next++
	return inj, true
}

func (s *scriptInjector) Deliver(rep combining.Reply, _ int64) {
	s.replies = append(s.replies, rep)
}
