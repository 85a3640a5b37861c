package coord

import (
	"combining/internal/asyncnet"
	"combining/internal/rmw"
	"combining/internal/word"
)

// PortMemory adapts one asyncnet port to the Memory interface: every Cell
// operation becomes an RMW request through the combining network.  Each
// participant goroutine must use its own port's PortMemory.
type PortMemory struct {
	Port *asyncnet.Port
}

var _ Memory = PortMemory{}

// Cell implements Memory.
func (p PortMemory) Cell(addr word.Addr) Cell {
	return portCell{port: p.Port, addr: addr}
}

type portCell struct {
	port *asyncnet.Port
	addr word.Addr
}

func (c portCell) FetchAdd(d int64) int64 {
	return c.port.RMW(c.addr, rmw.FetchAdd(d)).Val
}

func (c portCell) Load() int64 {
	return c.port.RMW(c.addr, rmw.Load{}).Val
}

func (c portCell) Store(v int64) {
	c.port.RMW(c.addr, rmw.StoreOf(v))
}

func (c portCell) Swap(v int64) int64 {
	return c.port.RMW(c.addr, rmw.SwapOf(v)).Val
}
