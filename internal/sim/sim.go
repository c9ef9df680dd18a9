// Package sim provides gate-level logic simulation for netlists built with
// internal/netlist. Three engines are available:
//
//   - ZeroDelay: levelized two-valued simulation; every net toggles at most
//     once per applied vector. Fast, glitch-free reference.
//   - EventDriven: transport-delay event simulation with the per-gate
//     intrinsic delays from the cell library; hazards propagate, so a net
//     may toggle several times per cycle. Each time step runs in two
//     phases (see Semantics), so the result does not depend on the order
//     in which a step's gates were scheduled. This is the engine the
//     charge model uses to play the role of the paper's PowerMill
//     reference simulator, because glitch power is what makes module
//     power a nonlinear function of the input Hamming-distance.
//   - Inertial: like EventDriven, but pulses narrower than a gate's delay
//     are filtered (inertial delay); per-net activity lies between the
//     other two engines. Used for glitch-filterability ablations.
//
// The simulation protocol mirrors the paper's characterization procedure:
// Settle(u) establishes a quiescent state on vector u without recording
// activity, then Apply(v) switches the inputs to v and returns the per-net
// toggle counts of the resulting transient.
//
// # Concurrency
//
// A Simulator is not safe for concurrent use, but Clone returns an
// independent simulator over the same finalized netlist: clones share the
// netlist's immutable netlist.Program (input nets, gates in topological
// order, per-gate delays, fanout lists) and own all mutable
// value/toggle/event state, so one simulator per goroutine — the original
// and any number of clones — may run Settle/Apply concurrently. Cloning
// is O(nets), which is what makes worker pools over a shared netlist
// practical.
package sim

import (
	"fmt"

	"hdpower/internal/cells"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
)

// Semantics names how EventDriven runs one time step: every gate
// scheduled at t reads the net values from before t, and only then do the
// outputs that changed commit and schedule their fanout. Identity hashes
// of state priced by the engine name it, so state priced under another
// step order is refused.
const Semantics = "two-phase"

// Engine selects the simulation algorithm.
type Engine int

const (
	// ZeroDelay evaluates gates in levelized order with no timing.
	ZeroDelay Engine = iota
	// EventDriven uses per-gate delays (transport-delay style) and counts
	// every glitch transition.
	EventDriven
	// Inertial uses per-gate delays with inertial filtering: pulses
	// narrower than a gate's delay are swallowed, as in real logic.
	Inertial
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case ZeroDelay:
		return "zero-delay"
	case EventDriven:
		return "event-driven"
	case Inertial:
		return "inertial"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Simulator simulates one netlist. It is not safe for concurrent use;
// create one Simulator per goroutine (see Clone).
type Simulator struct {
	nl     *netlist.Netlist
	p      *netlist.Program // immutable topology, shared between clones
	engine Engine

	value   []bool  // current value per net
	toggles []int64 // per-net toggle counts of the last Apply

	// event-driven state
	buckets   [][]int32 // time wheel of gate positions, index = absolute time
	scheduled []int     // last time a gate was scheduled, -1 if never
	flips     []int32   // outputs that flip at the current step, not yet committed

	// inertial-engine state
	pending []*inertialEvent

	// value-change recording (used by DumpVCD)
	recording bool
	record    []event

	settled bool
}

// New creates a simulator for the netlist. The netlist is finalized
// (validated) as a side effect.
func New(nl *netlist.Netlist, engine Engine) (*Simulator, error) {
	if err := nl.Finalize(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if engine != ZeroDelay && engine != EventDriven && engine != Inertial {
		return nil, fmt.Errorf("sim: unknown engine %d", int(engine))
	}
	return newSimulator(nl, nl.Program(), engine), nil
}

// newSimulator returns a simulator over the compiled program with fresh
// mutable state; constants hold their value forever.
func newSimulator(nl *netlist.Netlist, p *netlist.Program, engine Engine) *Simulator {
	s := &Simulator{
		nl:        nl,
		p:         p,
		engine:    engine,
		value:     make([]bool, nl.NumNets()),
		toggles:   make([]int64, nl.NumNets()),
		scheduled: make([]int, len(p.Gates)),
	}
	for _, t := range p.Ties {
		s.value[t.Net] = t.Val
	}
	return s
}

// Clone returns an independent simulator over the same finalized netlist.
// The clone shares the receiver's immutable netlist.Program and owns fresh
// value, toggle, and event state, so the clone and the receiver may
// simulate concurrently on different goroutines. The clone starts
// unsettled (Settle must be called before Apply) regardless of the
// receiver's state, and never inherits VCD recording.
func (s *Simulator) Clone() *Simulator { return newSimulator(s.nl, s.p, s.engine) }

// Netlist returns the simulated netlist.
func (s *Simulator) Netlist() *netlist.Netlist { return s.nl }

// NumInputBits returns the width of the input vector expected by Settle
// and Apply.
func (s *Simulator) NumInputBits() int { return len(s.p.Inputs) }

func (s *Simulator) checkWidth(v logic.Word) {
	if v.Width() != len(s.p.Inputs) {
		panic(fmt.Sprintf("sim: input vector width %d, netlist has %d input bits",
			v.Width(), len(s.p.Inputs)))
	}
}

// Settle forces the circuit into the steady state for input vector u
// without recording any switching activity. It must be called before the
// first Apply.
func (s *Simulator) Settle(u logic.Word) {
	s.checkWidth(u)
	for i, id := range s.p.Inputs {
		s.value[id] = u.Bit(i)
	}
	// Steady state is engine-independent: evaluate in topological order.
	for gi := range s.p.Gates {
		g := &s.p.Gates[gi]
		s.value[g.Out] = s.evalGate(g)
	}
	s.settled = true
}

// evalGate computes a gate's output from the current net values.
func (s *Simulator) evalGate(g *netlist.Gate) bool {
	a := s.value[g.In[0]]
	switch g.Kind {
	case cells.Buf:
		return a
	case cells.Inv:
		return !a
	case cells.And2:
		return a && s.value[g.In[1]]
	case cells.Or2:
		return a || s.value[g.In[1]]
	case cells.Xor2:
		return a != s.value[g.In[1]]
	case cells.Xnor2:
		return a == s.value[g.In[1]]
	case cells.Mux2:
		if s.value[g.In[2]] {
			return s.value[g.In[1]]
		}
		return a
	}
	panic(fmt.Sprintf("sim: unhandled gate kind %v", g.Kind))
}

// Apply switches the inputs to vector v, simulates the transient, and
// returns the per-net toggle counts. The returned slice is reused by the
// next Apply; callers that retain it must copy.
func (s *Simulator) Apply(v logic.Word) []int64 {
	s.checkWidth(v)
	if !s.settled {
		panic("sim: Apply before Settle")
	}
	for i := range s.toggles {
		s.toggles[i] = 0
	}
	switch s.engine {
	case ZeroDelay:
		s.applyZeroDelay(v)
	case EventDriven:
		s.applyEventDriven(v)
	case Inertial:
		s.applyInertial(v)
	}
	return s.toggles
}

func (s *Simulator) applyZeroDelay(v logic.Word) {
	for i, id := range s.p.Inputs {
		nv := v.Bit(i)
		if s.value[id] != nv {
			s.value[id] = nv
			s.toggles[id]++
		}
	}
	for gi := range s.p.Gates {
		g := &s.p.Gates[gi]
		nv := s.evalGate(g)
		if s.value[g.Out] != nv {
			s.value[g.Out] = nv
			s.toggles[g.Out]++
		}
	}
}

func (s *Simulator) applyEventDriven(v logic.Word) {
	for i := range s.scheduled {
		s.scheduled[i] = -1
	}
	// Empty the time wheel but keep every bucket's storage, so a warm
	// simulator schedules without allocating.
	for t := range s.buckets {
		s.buckets[t] = s.buckets[t][:0]
	}

	// Input edges at t = 0 schedule their fanout gates.
	for i, id := range s.p.Inputs {
		nv := v.Bit(i)
		if s.value[id] != nv {
			s.value[id] = nv
			s.toggles[id]++
			if s.recording {
				s.record = append(s.record, event{time: 0, net: id, val: nv})
			}
			s.scheduleFanout(id, 0)
		}
	}
	for t := 0; t < len(s.buckets); t++ {
		// Evaluate the whole step against the values from before it, then
		// commit. A gate is scheduled at most once per step and drives
		// one net, so no net flips twice in one step.
		s.flips = s.flips[:0]
		for _, gi := range s.buckets[t] {
			g := &s.p.Gates[gi]
			if s.evalGate(g) != s.value[g.Out] {
				s.flips = append(s.flips, g.Out)
			}
		}
		for _, out := range s.flips {
			nv := !s.value[out]
			s.value[out] = nv
			s.toggles[out]++
			if s.recording {
				s.record = append(s.record, event{time: t, net: netlist.NetID(out), val: nv})
			}
			s.scheduleFanout(netlist.NetID(out), t)
		}
	}
}

// scheduleFanout schedules evaluation of every gate fed by net id, at
// time now + delay(gate). Duplicate same-time schedules are suppressed.
func (s *Simulator) scheduleFanout(id netlist.NetID, now int) {
	for _, gi := range s.p.Fanout[id] {
		t := now + s.p.Delay[gi]
		if s.scheduled[gi] == t {
			continue
		}
		s.scheduled[gi] = t
		for len(s.buckets) <= t {
			s.buckets = append(s.buckets, nil)
		}
		s.buckets[t] = append(s.buckets[t], gi)
	}
}

// NetValue returns the current steady-state value of a net.
func (s *Simulator) NetValue(id netlist.NetID) bool { return s.value[id] }

// OutputWord reads an output bus as a word (LSB first).
func (s *Simulator) OutputWord(b netlist.Bus) logic.Word {
	w := logic.NewWord(b.Width())
	for i, id := range b.Nets {
		w.Set(i, s.value[id])
	}
	return w
}

// Eval is a convenience for functional verification: it settles on the
// vector and returns the value of the named output bus. Activity counters
// are left in an unspecified state.
//
//hdlint:allow deadexport test support: the dwlib generator tests check every module's function through it
func (s *Simulator) Eval(v logic.Word, output string) (logic.Word, error) {
	for _, b := range s.nl.Outputs() {
		if b.Name == output {
			s.Settle(v)
			return s.OutputWord(b), nil
		}
	}
	return logic.Word{}, fmt.Errorf("sim: netlist %s has no output bus %q", s.nl.Name, output)
}
