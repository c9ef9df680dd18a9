// Package power turns switching activity from the logic simulators into
// charge figures. It implements the switched-capacitance charge model the
// reproduction uses in place of the paper's PowerMill reference:
//
//	Q[cycle] = Σ_nets C(net) · toggles(net, cycle)
//
// with the supply voltage normalized to 1, so charge and energy per cycle
// coincide up to a constant factor — exactly the license the paper takes
// ("power and charge consumption only differ by a constant factor").
package power

import (
	"fmt"
	"math"

	"hdpower/internal/logic"
	"hdpower/internal/netlist"
	"hdpower/internal/sim"
)

// Meter measures per-cycle charge consumption of one netlist. It wraps a
// simulator and weights its toggles with the per-net capacitances of the
// netlist's compiled netlist.Program, in exact integer tenths. Not safe
// for concurrent use; Clone returns an independent meter for use on
// another goroutine.
type Meter struct {
	s *sim.Simulator
	p *netlist.Program // the program s simulates; CapTenths weights its toggles
}

// NewMeter builds a meter over the netlist using the given simulation
// engine. EventDriven is the engine all experiments use for reference
// charges; ZeroDelay is available for ablations.
func NewMeter(nl *netlist.Netlist, engine sim.Engine) (*Meter, error) {
	s, err := sim.New(nl, engine)
	if err != nil {
		return nil, err
	}
	return &Meter{s: s, p: nl.Program()}, nil
}

// Clone returns an independent meter over the same netlist. The clone
// shares the immutable program with the receiver (see
// sim.Simulator.Clone) and owns its simulation state, so clones may
// measure concurrently — one meter per goroutine.
func (m *Meter) Clone() *Meter {
	return &Meter{s: m.s.Clone(), p: m.p}
}

// Simulator exposes the underlying simulator (for functional checks).
func (m *Meter) Simulator() *sim.Simulator { return m.s }

// NumInputBits returns the input vector width.
func (m *Meter) NumInputBits() int { return m.s.NumInputBits() }

// Reset settles the circuit on vector u without accumulating charge.
func (m *Meter) Reset(u logic.Word) { m.s.Settle(u) }

// Arithmetic names how Cycle sums charge: int64 tenths of a charge unit
// (netlist.Program.CapTenths), divided by ten once per cycle. The sum is
// exact, so it does not depend on summation order, and it equals
// bitsim's charge bit for bit wherever the toggles agree.
const Arithmetic = "int64-tenths"

// Cycle applies the next input vector and returns the charge consumed by
// the resulting transient.
func (m *Meter) Cycle(v logic.Word) float64 {
	tog := m.s.Apply(v)
	caps := m.p.CapTenths
	var q int64
	for id, c := range tog {
		q += caps[id] * c
	}
	return float64(q) / 10
}

// Trace is a sequence of per-cycle charges together with the input vector
// pair that caused each cycle.
type Trace struct {
	// Q[j] is the charge of cycle j.
	Q []float64
	// Hd[j] is the input Hamming-distance of cycle j.
	Hd []int
	// StableZeros[j] is the number of input bits that were zero in both
	// vectors of cycle j (for the enhanced model).
	StableZeros []int
}

// Len returns the number of cycles in the trace.
func (t Trace) Len() int { return len(t.Q) }

// Total returns the summed charge.
func (t Trace) Total() float64 {
	var s float64
	for _, q := range t.Q {
		s += q
	}
	return s
}

// Mean returns the average per-cycle charge, or 0 for an empty trace.
func (t Trace) Mean() float64 {
	if len(t.Q) == 0 {
		return 0
	}
	return t.Total() / float64(len(t.Q))
}

// Max returns the largest per-cycle charge, or 0 for an empty trace.
func (t Trace) Max() float64 {
	var mx float64
	for _, q := range t.Q {
		if q > mx {
			mx = q
		}
	}
	return mx
}

// Run plays an input vector stream through the circuit: the first vector
// settles the circuit, every following vector is one measured cycle. The
// resulting trace has len(vectors)-1 cycles.
func (m *Meter) Run(vectors []logic.Word) (Trace, error) {
	if len(vectors) < 2 {
		return Trace{}, fmt.Errorf("power: need at least 2 vectors, got %d", len(vectors))
	}
	t := Trace{
		Q:           make([]float64, 0, len(vectors)-1),
		Hd:          make([]int, 0, len(vectors)-1),
		StableZeros: make([]int, 0, len(vectors)-1),
	}
	m.Reset(vectors[0])
	prev := vectors[0]
	for _, v := range vectors[1:] {
		t.Q = append(t.Q, m.Cycle(v))
		t.Hd = append(t.Hd, logic.Hd(prev, v))
		t.StableZeros = append(t.StableZeros, logic.StableZeros(prev, v))
		prev = v
	}
	return t, nil
}

// AvgAbsCycleError implements the paper's ε_a metric: the mean absolute
// relative per-cycle error of estimate against reference, in percent.
// Cycles whose reference charge is zero are compared absolutely against
// the mean reference charge to avoid division by zero (they contribute
// |est|/mean·100%).
func AvgAbsCycleError(estimate, reference []float64) (float64, error) {
	if len(estimate) != len(reference) {
		return 0, fmt.Errorf("power: length mismatch %d vs %d", len(estimate), len(reference))
	}
	if len(reference) == 0 {
		return 0, fmt.Errorf("power: empty traces")
	}
	var refMean float64
	for _, r := range reference {
		refMean += r
	}
	refMean /= float64(len(reference))
	if refMean == 0 {
		return 0, fmt.Errorf("power: reference trace is all zero")
	}
	var sum float64
	for j := range reference {
		if reference[j] != 0 {
			sum += math.Abs((estimate[j] - reference[j]) / reference[j])
		} else {
			sum += math.Abs(estimate[j]) / refMean
		}
	}
	return sum / float64(len(reference)) * 100, nil
}

// AvgError implements the paper's ε metric: the signed relative error of
// the total (equivalently average) charge, in percent.
func AvgError(estimate, reference []float64) (float64, error) {
	if len(estimate) != len(reference) {
		return 0, fmt.Errorf("power: length mismatch %d vs %d", len(estimate), len(reference))
	}
	var se, sr float64
	for j := range reference {
		se += estimate[j]
		sr += reference[j]
	}
	if sr == 0 {
		return 0, fmt.Errorf("power: reference total is zero")
	}
	return (se - sr) / sr * 100, nil
}
