// Package bitsim provides bit-parallel (parallel-pattern) gate-level
// simulation: 64 independent pattern pairs are packed into one uint64 per
// net, and every gate evaluates all 64 patterns with a handful of bitwise
// ops derived from the internal/cells truth tables. It is the software
// analogue of FPGA power-emulation — the lanes of a machine word play the
// role of the replicated hardware — and exists to make the paper's
// Hd-class characterization fast: per-net toggle counts come out of
// bits.OnesCount64 instead of per-pattern event queues.
//
// Two activity modes are available:
//
//   - ZeroDelay reproduces the scalar zero-delay engine exactly: gates are
//     swept once in topological order and every net toggles at most once
//     per applied pair. Toggle counts are bit-identical to
//     sim.ZeroDelay's, which the cross-validation suite asserts.
//   - UnitDelay approximates glitch activity with a levelized unit-delay
//     wavefront: after the input edge, dirty gates are re-evaluated in
//     synchronous steps (all gates whose inputs changed in step t produce
//     their new outputs in step t+1), and every inter-step output change
//     counts as a toggle. Path-length imbalance therefore produces
//     glitches just as in the event-driven reference, but all gates share
//     one unit delay instead of their per-kind intrinsic delays, so
//     per-net glitch counts agree only statistically — the event-driven
//     engine in internal/sim remains the golden reference, and
//     characterization cross-validates the two on sampled patterns.
//
// A Meter reads its topology from the netlist's compiled netlist.Program,
// the one sim and power.Meter read, and weights toggles with the same
// per-net switched capacitances, accumulating charge per lane, so a batch
// returns the per-pair charges the macro-model characterizer consumes.
//
// # Concurrency
//
// A Meter is not safe for concurrent use, but Clone returns an
// independent meter sharing the immutable program, so one meter per
// goroutine may simulate concurrently — the same pooling contract as
// sim.Simulator.
package bitsim

import (
	"fmt"
	"math/bits"

	"hdpower/internal/cells"
	"hdpower/internal/faultpoint"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
)

// Lanes is the number of pattern pairs processed per batch: one per bit
// of the packed uint64 net values.
const Lanes = 64

// Mode selects how switching activity is counted.
type Mode int

const (
	// ZeroDelay sweeps the gates once in topological order; every net
	// toggles at most once per pair. Matches sim.ZeroDelay bit-exactly.
	ZeroDelay Mode = iota
	// UnitDelay re-evaluates dirty gates in synchronous unit-delay steps,
	// accumulating the inter-step toggles as approximate glitch activity.
	UnitDelay
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ZeroDelay:
		return "zero-delay"
	case UnitDelay:
		return "unit-delay"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Meter simulates one netlist 64 pattern pairs at a time and weights the
// resulting activity with per-net capacitances. Not safe for concurrent
// use; see Clone.
type Meter struct {
	nl   *netlist.Netlist
	p    *netlist.Program // immutable topology, shared between clones
	mode Mode

	// Mutable per-batch state.
	val     []uint64 // packed net values, bit l = lane l
	toggles []int64  // per-net toggles of the last batch
	qacc    [Lanes]float64

	// Packing scratch.
	uPack, vPack []uint64

	// Unit-delay wavefront scratch.
	mark    []int32  // per gate: step at which it was last marked dirty
	dirty   []int32  // gate positions to re-evaluate this step
	pending []uint64 // new outputs of the dirty gates (two-phase commit)
	changed []int32  // nets that changed in the current step
}

// New builds a bit-parallel meter for the netlist. The netlist is
// finalized (validated) as a side effect.
func New(nl *netlist.Netlist, mode Mode) (*Meter, error) {
	if err := nl.Finalize(); err != nil {
		return nil, fmt.Errorf("bitsim: %w", err)
	}
	if mode != ZeroDelay && mode != UnitDelay {
		return nil, fmt.Errorf("bitsim: unknown mode %d", int(mode))
	}
	return newMeter(nl, nl.Program(), mode), nil
}

// newMeter returns a meter over the compiled program with fresh mutable
// state. Constant nets are tied across all lanes here and never touched
// again (settle and apply only write input nets and gate outputs).
func newMeter(nl *netlist.Netlist, p *netlist.Program, mode Mode) *Meter {
	m := &Meter{
		nl:      nl,
		p:       p,
		mode:    mode,
		val:     make([]uint64, nl.NumNets()),
		toggles: make([]int64, nl.NumNets()),
		uPack:   make([]uint64, len(p.Inputs)),
		vPack:   make([]uint64, len(p.Inputs)),
		mark:    make([]int32, len(p.Gates)),
	}
	for _, t := range p.Ties {
		if t.Val {
			m.val[t.Net] = ^uint64(0)
		}
	}
	return m
}

// Clone returns an independent meter over the same finalized netlist,
// sharing the immutable program and owning fresh value/toggle/scratch
// state, for use on another goroutine.
func (m *Meter) Clone() *Meter { return newMeter(m.nl, m.p, m.mode) }

// Netlist returns the simulated netlist.
func (m *Meter) Netlist() *netlist.Netlist { return m.nl }

// NumInputBits returns the input vector width expected by CycleBatch.
func (m *Meter) NumInputBits() int { return len(m.p.Inputs) }

// evalPacked computes a gate's packed output from the current net values.
// Each case is the bitwise form of the cells.Eval truth table, applied to
// all 64 lanes at once. Inverting kinds also invert the padding lanes of
// a partial batch; that is harmless, because padded lanes carry u == v
// and therefore never change after the settle sweep.
func (m *Meter) evalPacked(g *netlist.Gate) uint64 {
	a := m.val[g.In[0]]
	switch g.Kind {
	case cells.Buf:
		return a
	case cells.Inv:
		return ^a
	case cells.And2:
		return a & m.val[g.In[1]]
	case cells.Or2:
		return a | m.val[g.In[1]]
	case cells.Xor2:
		return a ^ m.val[g.In[1]]
	case cells.Xnor2:
		return ^(a ^ m.val[g.In[1]])
	case cells.Mux2:
		sel := m.val[g.In[2]]
		return (a &^ sel) | (m.val[g.In[1]] & sel)
	}
	panic(fmt.Sprintf("bitsim: unhandled gate kind %v", g.Kind))
}

// bump records a packed change mask on one net: per-net toggles via
// popcount, per-lane charge via a bit-scan over the set lanes.
func (m *Meter) bump(id int32, changed uint64) {
	m.toggles[id] += int64(bits.OnesCount64(changed))
	c := m.p.Cap[id]
	for msk := changed; msk != 0; msk &= msk - 1 {
		m.qacc[bits.TrailingZeros64(msk)] += c
	}
}

// CycleBatch simulates up to Lanes pattern pairs: lane l settles on us[l]
// without recording activity, then switches to vs[l] and accumulates the
// transient. The per-pair charges are written into q[:len(us)], and the
// per-net toggle counts aggregated over the whole batch are returned (the
// slice is reused by the next CycleBatch; callers that retain it must
// copy). Within a batch, lane charges are summed in deterministic
// net-change order, so identical batches produce bit-identical charges.
func (m *Meter) CycleBatch(us, vs []logic.Word, q []float64) []int64 {
	if len(us) != len(vs) {
		panic(fmt.Sprintf("bitsim: batch of %d u-vectors but %d v-vectors", len(us), len(vs)))
	}
	if len(us) == 0 || len(us) > Lanes {
		panic(fmt.Sprintf("bitsim: batch size %d outside [1, %d]", len(us), Lanes))
	}
	if len(q) < len(us) {
		panic(fmt.Sprintf("bitsim: charge buffer of %d for %d pairs", len(q), len(us)))
	}
	faultpoint.Delay("bitsim.batch") // chaos: slow batches must not change results
	w := len(m.p.Inputs)
	for l := range us {
		if us[l].Width() != w || vs[l].Width() != w {
			panic(fmt.Sprintf("bitsim: input vector widths %d/%d, netlist has %d input bits",
				us[l].Width(), vs[l].Width(), w))
		}
	}
	logic.PackLanes(m.uPack, us)
	logic.PackLanes(m.vPack, vs)
	for i := range m.toggles {
		m.toggles[i] = 0
	}
	for l := range us {
		m.qacc[l] = 0
	}
	// Settle on u: steady state is mode-independent, one topological sweep.
	for i, id := range m.p.Inputs {
		m.val[id] = m.uPack[i]
	}
	gates := m.p.Gates
	for gi := range gates {
		g := &gates[gi]
		m.val[g.Out] = m.evalPacked(g)
	}
	switch m.mode {
	case ZeroDelay:
		m.applyZeroDelay()
	case UnitDelay:
		m.applyUnitDelay()
	}
	for l := range us {
		q[l] = m.qacc[l]
	}
	return m.toggles
}

// applyZeroDelay switches the inputs to v and sweeps the gates once in
// topological order, counting at most one toggle per net — the exact
// semantics of sim.ZeroDelay, 64 lanes at a time.
func (m *Meter) applyZeroDelay() {
	for i, id := range m.p.Inputs {
		nv := m.vPack[i]
		if c := m.val[id] ^ nv; c != 0 {
			m.val[id] = nv
			m.bump(int32(id), c)
		}
	}
	gates := m.p.Gates
	for gi := range gates {
		g := &gates[gi]
		nv := m.evalPacked(g)
		if c := m.val[g.Out] ^ nv; c != 0 {
			m.val[g.Out] = nv
			m.bump(g.Out, c)
		}
	}
}

// applyUnitDelay switches the inputs to v and propagates the edge as a
// synchronous unit-delay wavefront: every step collects the gates fed by
// nets that changed in the previous step, evaluates them all against the
// pre-step values (two-phase, so within-step order is irrelevant), then
// commits the changes, counting each as a toggle. Outputs converge to the
// settle(v) steady state in at most Depth() steps because a gate at logic
// level L has final inputs after step L-1; every extra change on the way
// is an (approximate, unit-delay) glitch.
func (m *Meter) applyUnitDelay() {
	for i := range m.mark {
		m.mark[i] = -1
	}
	m.changed = m.changed[:0]
	for i, id := range m.p.Inputs {
		nv := m.vPack[i]
		if c := m.val[id] ^ nv; c != 0 {
			m.val[id] = nv
			m.bump(int32(id), c)
			m.changed = append(m.changed, int32(id))
		}
	}
	for step := int32(0); len(m.changed) > 0; step++ {
		m.dirty = m.dirty[:0]
		for _, id := range m.changed {
			for _, gi := range m.p.Fanout[id] {
				if m.mark[gi] != step {
					m.mark[gi] = step
					m.dirty = append(m.dirty, gi)
				}
			}
		}
		m.pending = m.pending[:0]
		for _, gi := range m.dirty {
			m.pending = append(m.pending, m.evalPacked(&m.p.Gates[gi]))
		}
		m.changed = m.changed[:0]
		for k, gi := range m.dirty {
			out := m.p.Gates[gi].Out
			nv := m.pending[k]
			if c := m.val[out] ^ nv; c != 0 {
				m.val[out] = nv
				m.bump(out, c)
				m.changed = append(m.changed, out)
			}
		}
	}
}
