// Pathexpr: data-level synchronization from a path expression
// (Section 5.6).
//
// The path expression "(open (read | write)* close)*" is compiled — regular
// expression → NFA → minimized DFA → state-table RMW mappings — and
// guards a shared object: each access atomically tests legality against
// the automaton and advances it.  Illegal accesses are refused with a
// negative acknowledgment (the old state in the reply).
package main

import (
	"fmt"
	"log"

	combining "combining"
)

func main() {
	guard, err := combining.CompilePath("(open (read | write)* close)*")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("path expression compiled to a %d-state automaton over %v\n\n",
		guard.States(), guard.Ops())

	// One processor runs the whole script as a program on the Omega
	// machine; the guard answers each access with the automaton's old state.
	const guardCell = combining.Addr(3)
	script := []string{
		"open", "read", "read", "write", "close", // a legal session
		"read", "close", // illegal attempts: nothing is open
		"open", "write", "close", // and the object can be reopened
	}
	prog := make([]combining.Instr, len(script))
	for i, op := range script {
		m, ok := guard.Mapping(op)
		if !ok {
			log.Fatalf("unknown operation %q", op)
		}
		prog[i] = combining.RMW(guardCell, m)
	}
	mach, _, _, err := combining.CheckBattery("omega", combining.WiringConfig{Procs: 2},
		[][]combining.Instr{prog, nil}, 10_000)
	if err != nil {
		log.Fatal(err)
	}

	for i, op := range script {
		switch i {
		case 0:
			fmt.Println("a legal session:")
		case 5:
			fmt.Println("\nillegal attempts:")
		case 7:
			fmt.Println("\nand the object can be reopened:")
		}
		m, _ := guard.Mapping(op)
		old := mach.Proc(0).Reply(i)
		if m.Failed(old.Tag) {
			fmt.Printf("  %-6s → REFUSED (automaton in state %d)\n", op, old.Tag)
			continue
		}
		fmt.Printf("  %-6s → ok      (state %d → next)\n", op, old.Tag)
	}
}
