package sim

import (
	"container/heap"

	"hdpower/internal/logic"
	"hdpower/internal/netlist"
)

// The Inertial engine models inertial gate delay: a gate's output only
// changes if the new value persists at its inputs for the gate's full
// propagation delay. Pulses narrower than the delay are swallowed, as in
// real logic, so the Inertial engine counts FEWER glitch transitions than
// the transport-like EventDriven engine and at least as many as
// ZeroDelay. It exists for charge-model ablations (how much reported
// glitch power is filterable) and is selected with sim.Inertial.
//
// Implementation: input changes trigger immediate re-evaluation; the
// prospective output value is scheduled to appear after the gate delay.
// A newer evaluation that re-confirms the current output cancels any
// pending contrary transition (the inertial filter); one that contradicts
// the pending transition reschedules it.

// inertialEvent is a scheduled output change of one gate.
type inertialEvent struct {
	time int
	seq  int   // tie-break for determinism
	gate int32 // position in the program's gate list, -1 once cancelled
	val  bool
}

type inertialQueue []*inertialEvent

func (q inertialQueue) Len() int { return len(q) }
func (q inertialQueue) Less(a, b int) bool {
	if q[a].time != q[b].time {
		return q[a].time < q[b].time
	}
	return q[a].seq < q[b].seq
}
func (q inertialQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *inertialQueue) Push(x interface{}) {
	*q = append(*q, x.(*inertialEvent))
}
func (q *inertialQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

func (s *Simulator) applyInertial(v logic.Word) {
	// pending[g] points at the live scheduled transition of gate g, nil
	// if none. Cancelled events stay in the heap with gate = -1.
	if s.pending == nil {
		s.pending = make([]*inertialEvent, len(s.p.Gates))
	}
	for i := range s.pending {
		s.pending[i] = nil
	}
	var queue inertialQueue
	seq := 0

	// evaluate gate g at time t: schedule/cancel its output transition.
	evaluate := func(g int32, t int) {
		newVal := s.evalGate(&s.p.Gates[g])
		out := s.p.Gates[g].Out
		if p := s.pending[g]; p != nil {
			if p.val == newVal {
				return // already heading there
			}
			// Contradicts the pending transition: the pulse that caused
			// it was narrower than the gate delay — cancel it.
			p.gate = -1
			s.pending[g] = nil
		}
		if s.value[out] == newVal {
			return // stable at the right value, nothing to schedule
		}
		e := &inertialEvent{time: t + s.p.Delay[g], seq: seq, gate: g, val: newVal}
		seq++
		s.pending[g] = e
		heap.Push(&queue, e)
	}

	// Apply input edges at t = 0.
	for i, id := range s.p.Inputs {
		nv := v.Bit(i)
		if s.value[id] != nv {
			s.value[id] = nv
			s.toggles[id]++
			for _, g := range s.p.Fanout[id] {
				evaluate(g, 0)
			}
		}
	}
	for queue.Len() > 0 {
		e := heap.Pop(&queue).(*inertialEvent)
		if e.gate < 0 {
			continue // cancelled
		}
		s.pending[e.gate] = nil
		out := netlist.NetID(s.p.Gates[e.gate].Out)
		if s.value[out] == e.val {
			continue
		}
		s.value[out] = e.val
		s.toggles[out]++
		if s.recording {
			s.record = append(s.record, event{time: e.time, net: out, val: e.val})
		}
		for _, g := range s.p.Fanout[out] {
			evaluate(g, e.time)
		}
	}
}
