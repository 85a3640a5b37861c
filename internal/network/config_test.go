package network

import (
	"strings"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

func idOf(p, i int) word.ReqID { return word.ReqID(p*100 + i + 1) }
func addOne() rmw.Mapping      { return rmw.FetchAdd(1) }
func procOf(p int) word.ProcID { return word.ProcID(p) }

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestConfigValidation(t *testing.T) {
	mk := func(cfg Config, n int) func() {
		return func() {
			inj, _ := emptyInjectors(n)
			NewSim(cfg, inj)
		}
	}
	mustPanic(t, "procs not power of radix", mk(Config{Procs: 6}, 6))
	mustPanic(t, "procs too small", mk(Config{Procs: 1}, 1))
	mustPanic(t, "bad radix", mk(Config{Procs: 8, Radix: 1}, 8))
	mustPanic(t, "radix mismatch", mk(Config{Procs: 8, Radix: 4}, 8))
	mustPanic(t, "injector count", func() {
		inj, _ := emptyInjectors(3)
		NewSim(Config{Procs: 8}, inj)
	})
	// A route the reply path header cannot hold (engine.Path: sixteen hops
	// of sixteen ports) is a validation error, not a panic in the table
	// compiler.
	for _, cfg := range []Config{{Procs: 1024, Radix: 32}, {Procs: 1 << 17}} {
		if err := cfg.Validate(); err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("Procs %d, Radix %d: want a one-line error, got %v", cfg.Procs, cfg.Radix, err)
		}
	}
	if err := (Config{Procs: 256, Radix: 16}).Validate(); err != nil {
		t.Errorf("radix 16 fits the path header, yet: %v", err)
	}
}

func TestDrainTimeout(t *testing.T) {
	// An injector that never stops issuing prevents draining.
	const n = 4
	inj := make([]Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = NewStochastic(p, n, TrafficConfig{Rate: 1, Window: 4}, 1)
	}
	sim := NewSim(Config{Procs: n}, inj)
	if sim.Drain(50) {
		t.Fatal("drained despite endless traffic")
	}
}

func TestStatsZeroValues(t *testing.T) {
	var st Stats
	if st.MeanLatency() != 0 || st.Bandwidth() != 0 ||
		st.HotMeanLatency() != 0 || st.ColdMeanLatency() != 0 {
		t.Fatal("zero stats must report zeros")
	}
	if st.Percentile(0.5) != 0 {
		t.Fatal("percentile of empty stats must be 0")
	}
}

func TestUnboundedQueueConfig(t *testing.T) {
	// QueueCap < 0 means unbounded: a burst larger than any default cap
	// still drains.
	const n = 8
	inj, scripts := emptyInjectors(n)
	for p := 0; p < n; p++ {
		for i := 0; i < 20; i++ {
			scripts[p].script = append(scripts[p].script, Injection{
				Req: core.NewRequest(idOf(p, i), 0, addOne(), procOf(p)),
			})
		}
	}
	sim := NewSim(Config{Procs: n, QueueCap: -1, WaitBufCap: 0}, inj)
	if !sim.Drain(20000) {
		t.Fatal("unbounded queues did not drain")
	}
	if got := sim.Memory().Peek(0).Val; got != n*20 {
		t.Fatalf("final %d, want %d", got, n*20)
	}
}
