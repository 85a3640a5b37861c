package engine

import "fmt"

// IsPowerOf reports whether n is a positive power of k (k^1, k^2, ...),
// for k >= 2.
func IsPowerOf(n, k int) bool {
	if n < k {
		return false
	}
	for n%k == 0 {
		n /= k
	}
	return n == 1
}

// Spec is the one validation path every engine Config funnels through.
// Each engine maps its Config onto a Spec (after applying defaults) and
// returns Spec.Validate() from its own Config.Validate; the constructors
// keep their historical panic-on-invalid contract by panicking with the
// same error.  Commands call Config.Validate first and turn the error
// into a one-line exit instead of a stack trace.
//
// Queue capacities share one convention across the engines and are not
// rejected here: 0 means the engine default, negative means unbounded
// (core.Unbounded), positive is a bound.  Every other overlapping knob
// the engines used to police separately is covered below.
type Spec struct {
	// Engine prefixes every error message ("network", "hypercube", ...).
	Engine string
	// Procs is the processor/node/port count; Field names it in errors.
	Procs int
	Field string // defaults to "Procs"
	// PowerOf, when >= 2, requires Procs to be a positive power of it
	// (radix for staged networks, 2 for the cube).  When 0, Procs must be
	// at least MinProcs instead.
	PowerOf  int
	MinProcs int
	// Banks, for engines with a separate bank count; pass 1 when n/a.
	Banks int
	// Workers is the parallel-stepper width; negative is rejected.
	Workers int
	// Service is a service-time knob (memory or bank); negative is
	// rejected, 0 means the engine default.
	Service int
	// Queues is the most queues a station of the wiring has on one side
	// (a staged switch's radix, a direct node's degree plus its memory
	// queue); more than MaxQueues do not fit the occupancy index.
	Queues int
	// Topology, when non-nil, is validated too (wiring parameters).
	Topology interface{ Validate() error }
	// TopologySize/TopologyField reject a Config whose explicit size
	// disagrees with its Topology's; 0 skips the check.
	TopologySize  int
	TopologyField string
}

func (s Spec) Validate() error {
	field := s.Field
	if field == "" {
		field = "Procs"
	}
	if s.Topology != nil {
		if err := s.Topology.Validate(); err != nil {
			return fmt.Errorf("%s: invalid topology: %w", s.Engine, err)
		}
		if s.TopologySize != 0 && s.Procs != 0 && s.Procs != s.TopologySize {
			return fmt.Errorf("%s: %s %d disagrees with the topology's %s (%d)",
				s.Engine, field, s.Procs, s.TopologyField, s.TopologySize)
		}
	}
	switch {
	case s.PowerOf >= 2:
		if !IsPowerOf(s.Procs, s.PowerOf) {
			return fmt.Errorf("%s: %s must be a positive power of %d, got %d",
				s.Engine, field, s.PowerOf, s.Procs)
		}
	case s.Procs < s.MinProcs:
		return fmt.Errorf("%s: %s must be >= %d, got %d", s.Engine, field, s.MinProcs, s.Procs)
	}
	if s.Banks < 1 {
		return fmt.Errorf("%s: Banks must be >= 1, got %d", s.Engine, s.Banks)
	}
	if s.Workers < 0 {
		return fmt.Errorf("%s: Workers must be >= 0 (0 and 1 both mean serial), got %d",
			s.Engine, s.Workers)
	}
	if s.Queues > MaxQueues {
		return fmt.Errorf("%s: a station of %d queues a side does not fit the occupancy index (at most %d)",
			s.Engine, s.Queues, MaxQueues)
	}
	if s.Service < 0 {
		return fmt.Errorf("%s: service time must be >= 0 (0 means the default), got %d",
			s.Engine, s.Service)
	}
	return nil
}
