// Package sim provides gate-level logic simulation for netlists built with
// internal/netlist. Three engines are available:
//
//   - ZeroDelay: levelized two-valued simulation; every net toggles at most
//     once per applied vector. Fast, glitch-free reference.
//   - EventDriven: transport-delay event simulation with the per-gate
//     intrinsic delays from the cell library; hazards propagate, so a net
//     may toggle several times per cycle. This is the engine the charge
//     model uses to play the role of the paper's PowerMill reference
//     simulator, because glitch power is what makes module power a
//     nonlinear function of the input Hamming-distance.
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
// immutable topology (netlist, input ordering, topological order, per-gate
// delays, fanout tables) and own all mutable value/toggle/event state, so
// one simulator per goroutine — the original and any number of clones —
// may run Settle/Apply concurrently. Cloning is O(nets), far cheaper than
// New, which is what makes worker pools over a shared netlist practical.
package sim

import (
	"fmt"

	"hdpower/internal/cells"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
)

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
	engine Engine

	// Immutable after New; shared between clones.
	inputNets []netlist.NetID
	order     []netlist.GateID
	fanout    [][]netlist.GateID // per-net fanout gates, precomputed
	delay     []int              // per-gate delay, precomputed

	value   []bool  // current value per net
	toggles []int64 // per-net toggle counts of the last Apply

	// event-driven state
	buckets   [][]netlist.GateID // time wheel, index = absolute time
	scheduled []int              // last time a gate was scheduled, -1 if never

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
	s := &Simulator{
		nl:        nl,
		engine:    engine,
		inputNets: nl.InputNets(),
		order:     nl.TopoOrder(),
		value:     make([]bool, nl.NumNets()),
		toggles:   make([]int64, nl.NumNets()),
		scheduled: make([]int, nl.NumGates()),
		delay:     make([]int, nl.NumGates()),
	}
	for g := 0; g < nl.NumGates(); g++ {
		s.delay[g] = cells.Lookup(nl.GateKind(netlist.GateID(g))).Delay
	}
	// Flatten the fanout gate lists once; the event loops walk them on
	// every transition and must not allocate there.
	s.fanout = make([][]netlist.GateID, nl.NumNets())
	for id := 0; id < nl.NumNets(); id++ {
		pins := nl.FanoutPins(netlist.NetID(id))
		if len(pins) == 0 {
			continue
		}
		gates := make([]netlist.GateID, len(pins))
		for i, p := range pins {
			gates[i] = p.Gate
		}
		s.fanout[id] = gates
	}
	// Constants hold their value forever.
	for id := 0; id < nl.NumNets(); id++ {
		if v, isConst := nl.IsConst(netlist.NetID(id)); isConst {
			s.value[id] = v
		}
	}
	return s, nil
}

// Clone returns an independent simulator over the same finalized netlist.
// The clone shares the receiver's immutable topology — netlist, input
// ordering, topological order, per-gate delays, and fanout tables — and
// owns fresh value, toggle, and event state, so the clone and the receiver
// may simulate concurrently on different goroutines. The clone starts
// unsettled (Settle must be called before Apply) regardless of the
// receiver's state, and never inherits VCD recording.
func (s *Simulator) Clone() *Simulator {
	c := &Simulator{
		nl:        s.nl,
		engine:    s.engine,
		inputNets: s.inputNets,
		order:     s.order,
		fanout:    s.fanout,
		delay:     s.delay,
		value:     make([]bool, len(s.value)),
		toggles:   make([]int64, len(s.toggles)),
		scheduled: make([]int, len(s.scheduled)),
	}
	for id := 0; id < c.nl.NumNets(); id++ {
		if v, isConst := c.nl.IsConst(netlist.NetID(id)); isConst {
			c.value[id] = v
		}
	}
	return c
}

// Netlist returns the simulated netlist.
func (s *Simulator) Netlist() *netlist.Netlist { return s.nl }

// NumInputBits returns the width of the input vector expected by Settle
// and Apply.
func (s *Simulator) NumInputBits() int { return len(s.inputNets) }

func (s *Simulator) checkWidth(v logic.Word) {
	if v.Width() != len(s.inputNets) {
		panic(fmt.Sprintf("sim: input vector width %d, netlist has %d input bits",
			v.Width(), len(s.inputNets)))
	}
}

// Settle forces the circuit into the steady state for input vector u
// without recording any switching activity. It must be called before the
// first Apply.
func (s *Simulator) Settle(u logic.Word) {
	s.checkWidth(u)
	for i, id := range s.inputNets {
		s.value[id] = u.Bit(i)
	}
	// Steady state is engine-independent: evaluate in topological order.
	for _, g := range s.order {
		s.value[s.nl.GateOutput(g)] = s.evalGate(g)
	}
	s.settled = true
}

func (s *Simulator) evalGate(g netlist.GateID) bool {
	ins := s.nl.GateInputs(g)
	switch s.nl.GateKind(g) {
	// Hot path: inline the common kinds to avoid slice allocation.
	case cells.Inv:
		return !s.value[ins[0]]
	case cells.Buf:
		return s.value[ins[0]]
	case cells.And2:
		return s.value[ins[0]] && s.value[ins[1]]
	case cells.Or2:
		return s.value[ins[0]] || s.value[ins[1]]
	case cells.Nand2:
		return !(s.value[ins[0]] && s.value[ins[1]])
	case cells.Nor2:
		return !(s.value[ins[0]] || s.value[ins[1]])
	case cells.Xor2:
		return s.value[ins[0]] != s.value[ins[1]]
	case cells.Xnor2:
		return s.value[ins[0]] == s.value[ins[1]]
	case cells.Mux2:
		if s.value[ins[2]] {
			return s.value[ins[1]]
		}
		return s.value[ins[0]]
	default:
		buf := make([]bool, len(ins))
		for i, id := range ins {
			buf[i] = s.value[id]
		}
		return cells.Eval(s.nl.GateKind(g), buf)
	}
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
	for i, id := range s.inputNets {
		nv := v.Bit(i)
		if s.value[id] != nv {
			s.value[id] = nv
			s.toggles[id]++
		}
	}
	for _, g := range s.order {
		out := s.nl.GateOutput(g)
		nv := s.evalGate(g)
		if s.value[out] != nv {
			s.value[out] = nv
			s.toggles[out]++
		}
	}
}

func (s *Simulator) applyEventDriven(v logic.Word) {
	for i := range s.scheduled {
		s.scheduled[i] = -1
	}
	s.buckets = s.buckets[:0]

	// Input edges at t = 0 schedule their fanout gates.
	for i, id := range s.inputNets {
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
		bucket := s.buckets[t]
		for _, g := range bucket {
			out := s.nl.GateOutput(g)
			nv := s.evalGate(g)
			if s.value[out] != nv {
				s.value[out] = nv
				s.toggles[out]++
				if s.recording {
					s.record = append(s.record, event{time: t, net: out, val: nv})
				}
				s.scheduleFanout(out, t)
			}
		}
	}
}

// scheduleFanout schedules evaluation of every gate fed by net id, at
// time now + delay(gate). Duplicate same-time schedules are suppressed.
func (s *Simulator) scheduleFanout(id netlist.NetID, now int) {
	for _, g := range s.fanout[id] {
		t := now + s.delay[g]
		if s.scheduled[g] == t {
			continue
		}
		s.scheduled[g] = t
		for len(s.buckets) <= t {
			s.buckets = append(s.buckets, nil)
		}
		s.buckets[t] = append(s.buckets[t], g)
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
func (s *Simulator) Eval(v logic.Word, output string) (logic.Word, error) {
	for _, b := range s.nl.Outputs() {
		if b.Name == output {
			s.Settle(v)
			return s.OutputWord(b), nil
		}
	}
	return logic.Word{}, fmt.Errorf("sim: netlist %s has no output bus %q", s.nl.Name, output)
}
