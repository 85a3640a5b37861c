package combining_test

import (
	"testing"

	combining "combining"
)

// wired is the build function of a registered wiring; a config the wiring
// rejects fails the test.
func wired(tb testing.TB, name string, cfg combining.WiringConfig) func([]combining.Injector) combining.MachineEngine {
	tb.Helper()
	build, err := combining.NewWiring(name, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return build
}

// TestColdLatencyOnEveryWiring: the hot/cold latency split is recorded once,
// in the shared shell, so a 1/8 hot-spot run must leave a cold mean latency
// on all six wirings — cmd/combsim used to print 0.00 for three of them
// because it read the split off one engine's Stats only.
func TestColdLatencyOnEveryWiring(t *testing.T) {
	const n = 16
	for _, name := range combining.Wirings() {
		inj := make([]combining.Injector, n)
		for p := range inj {
			inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{Rate: 0.6, HotFraction: 0.125}, 1)
		}
		m := wired(t, name, combining.WiringConfig{Procs: n, WaitBufCap: combining.Unbounded})(inj)
		m.Run(300)
		if tot := m.Totals(); tot.ColdCompleted == 0 || tot.ColdMeanLatency() <= 0 || tot.HotMeanLatency() <= 0 {
			t.Errorf("%s: cold mean latency %.2f over %d completions, hot %.2f — the split is not recorded",
				name, tot.ColdMeanLatency(), tot.ColdCompleted, tot.HotMeanLatency())
		}
	}
}
