package bitsim

import (
	"math/bits"

	"hdpower/internal/logic"
)

// NetMeter is the per-net twin of a Meter: the same netlist, program and
// mode, compiled over a class map that gives every net a class of its
// own, so its per-class change counts are per-net toggles. It runs the
// production commit loop unchanged (its runs are one slot long), and its
// charges must equal the production meter's bit for bit.
type NetMeter struct {
	*Meter
	toggles []int64
}

// NewNetMeter returns the per-net twin of m, with fresh state.
func NewNetMeter(m *Meter) *NetMeter {
	class := make([]int32, len(m.p.CapTenths))
	for id := range class {
		class[id] = int32(id)
	}
	s := compile(m.p, m.mode, class, m.p.CapTenths)
	return &NetMeter{Meter: newMeter(m.nl, m.p, s, m.mode), toggles: make([]int64, len(class))}
}

// CycleBatch prices a batch as Meter.CycleBatch does and returns its
// per-net toggle counts, read off the class counters before the flush
// clears them. The slice is reused by the next batch.
func (m *NetMeter) CycleBatch(us, vs []logic.Word, q []float64) []int64 {
	m.simulate(us, vs, q)
	for id := range m.toggles {
		var n int64
		for j, x := range m.planes[m.s.planeOff[id]:m.s.planeOff[id+1]] {
			n += int64(bits.OnesCount64(x)) << j
		}
		m.toggles[id] = n
	}
	m.flush(q[:len(us)])
	return m.toggles
}

// RunLengths returns the slot count of every run of m's schedule, in
// schedule order.
func RunLengths(m *Meter) []int {
	lengths := make([]int, len(m.s.runs))
	start := int32(0)
	for r, run := range m.s.runs {
		lengths[r] = int(run.end - start)
		start = run.end
	}
	return lengths
}
