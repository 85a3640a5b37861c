package network_test

import (
	"strings"
	"testing"

	"combining/internal/machine"
)

// A request trace names the network port each request enters by; the codec
// that reads it lives in machine (a trace is a set of programs), so these
// tests of what it refuses sit in the external test package.

func TestParseTraceErrors(t *testing.T) {
	for _, bad := range []string{
		"1 2 3",             // too few fields
		"x 0 5 add 1",       // bad cycle
		"0 0 5 frob 1",      // unknown op
		"0 0 5 add notanum", // bad argument
	} {
		if _, err := machine.ParseTrace(strings.NewReader(bad), 4); err == nil {
			t.Errorf("ParseTrace(%q) succeeded", bad)
		}
	}
}

// TestReplayOutOfRangeProc: a line naming a processor the network has no
// port for is refused when the trace is read, not when it is replayed.
func TestReplayOutOfRangeProc(t *testing.T) {
	for _, bad := range []string{"0 9 0 load", "0 4 0 load", "0 -1 0 load"} {
		if _, err := machine.ParseTrace(strings.NewReader(bad), 4); err == nil {
			t.Errorf("ParseTrace(%q) on 4 processors succeeded", bad)
		}
	}
	if _, err := machine.ParseTrace(strings.NewReader("0 3 0 load"), 4); err != nil {
		t.Errorf("last processor refused: %v", err)
	}
}
