package network

import (
	"strings"
	"testing"

	"combining/internal/engine"
)

// Regression tests for the validation drift the four hand-rolled fill()
// copies had accumulated: Config.Validate is the one non-panicking path
// (commands turn it into a one-line exit), NewSim panics with the very
// same error, and a traced machine may step at any width.

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"defaults", Config{Procs: 8}, ""},
		{"radix4", Config{Procs: 64, Radix: 4}, ""},
		{"topology adopts size", Config{Topology: engine.FatTreeOf(16, 2)}, ""},
		{"unbounded queues", Config{Procs: 8, QueueCap: -1, RevQueueCap: -1, MemQueueCap: -1}, ""},
		{"zero procs", Config{}, "must be a positive power of 2"},
		{"non power", Config{Procs: 12}, "must be a positive power of 2"},
		{"non power of radix", Config{Procs: 32, Radix: 4}, "must be a positive power of 4"},
		{"radix one", Config{Procs: 8, Radix: 1}, "Radix must be >= 2"},
		{"negative workers", Config{Procs: 8, Workers: -1}, "Workers must be >= 0"},
		{"trace with workers ok", Config{Procs: 8, Workers: 2, Trace: func(engine.Event) {}}, ""},
		{"workers no trace ok", Config{Procs: 8, Workers: 2}, ""},
		{"size disagrees with topology", Config{Procs: 32, Topology: engine.FatTreeOf(16, 2)},
			"disagrees with the topology's processor count"},
		{"radix disagrees with topology", Config{Radix: 4, Topology: engine.FatTreeOf(16, 2)},
			"disagrees with the topology's radix"},
		{"invalid topology", Config{Topology: engine.FatTreeOf(12, 2)}, "invalid topology"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: valid config rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if !strings.HasPrefix(err.Error(), "network: ") {
			t.Errorf("%s: error %q is not prefixed with the engine name", tc.name, err)
		}
	}
}

// NewSim keeps its historical panic-on-invalid contract, and the panic
// value is exactly the Validate error — no second, drifting copy of the
// checks.
func TestNewSimPanicsWithValidateError(t *testing.T) {
	cfg := Config{Procs: 12}
	want := cfg.Validate()
	if want == nil {
		t.Fatal("test config unexpectedly valid")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewSim accepted a config Validate rejects")
		}
		err, ok := r.(error)
		if !ok || err.Error() != want.Error() {
			t.Fatalf("NewSim panic = %v, Validate error = %v", r, want)
		}
	}()
	NewSim(cfg, make([]Injector, 12))
}
