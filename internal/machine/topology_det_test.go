package machine

import (
	"testing"

	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/hypercube"
	"combining/internal/network"
)

// The new wirings plug into the same engine cores with zero step-loop code
// of their own, so they inherit the determinism contract wholesale: the
// fat-tree runs the staged core and the torus the direct-connection core,
// each at the same minimal queue capacities and widths as the stock
// topologies, clean and under a fault plan, with the Workers=1 run checked
// against the core.SerialReplies ground truth at 64 processors.

func fatTreeDet(plan *faults.Plan) func(workers int) func([]network.Injector) Engine {
	return func(workers int) func([]network.Injector) Engine {
		return func(inj []network.Injector) Engine {
			return network.NewSim(network.Config{
				Topology: engine.FatTreeOf(64, 2),
				QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
				WaitBufCap: soakWaitCap, Faults: plan, Workers: workers,
			}, inj)
		}
	}
}

func torusDet(plan *faults.Plan) func(workers int) func([]network.Injector) Engine {
	return func(workers int) func([]network.Injector) Engine {
		return func(inj []network.Injector) Engine {
			return hypercube.NewSim(hypercube.Config{
				Topology: engine.TorusOf(8, 8),
				QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
				WaitBufCap: soakWaitCap, Faults: plan, Workers: workers,
			}, inj)
		}
	}
}

func TestDeterminismFatTree(t *testing.T) {
	runDeterminismCheck(t, "fattree/clean", 64, 8, 400000, fatTreeDet(nil))
	runDeterminismCheck(t, "fattree/faults", 64, 4, 2000000, fatTreeDet(faults.Default(34)))
}

func TestDeterminismTorus(t *testing.T) {
	runDeterminismCheck(t, "torus/clean", 64, 8, 400000, torusDet(nil))
	runDeterminismCheck(t, "torus/faults", 64, 4, 2000000, torusDet(faults.Default(35)))
}

// A higher-radix fat-tree shares no wiring arithmetic with omega at all
// (the digit swap is only line-preserving for radix 2 stage pairs), so run
// one clean determinism pass at radix 4 to pin the staged core's generic
// conflict groups on a genuinely different partition shape.
func TestDeterminismFatTreeRadix4(t *testing.T) {
	build := func(workers int) func([]network.Injector) Engine {
		return func(inj []network.Injector) Engine {
			return network.NewSim(network.Config{
				Topology: engine.FatTreeOf(64, 4),
				QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
				WaitBufCap: soakWaitCap, Workers: workers,
			}, inj)
		}
	}
	runDeterminismCheck(t, "fattree4/clean", 64, 8, 400000, build)
}
