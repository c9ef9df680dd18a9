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
// A Meter weights toggles with the same per-net switched capacitances as
// power.Meter (netlist.NetCap), accumulating charge per lane, so a batch
// returns the per-pair charges the macro-model characterizer consumes.
//
// # Concurrency
//
// A Meter is not safe for concurrent use, but Clone returns an
// independent meter sharing the immutable topology (flattened gate table,
// fanout lists, capacitances), so one meter per goroutine may simulate
// concurrently — the same pooling contract as sim.Simulator.
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

// gateRec is the flattened per-gate record the hot loops walk: kind plus
// up to three input net ids and the output net id, all int32 to keep the
// table compact and cache-friendly. Unused input slots are 0 and never
// read (evalPacked dispatches on kind).
type gateRec struct {
	kind cells.Kind
	in   [3]int32
	out  int32
}

// Meter simulates one netlist 64 pattern pairs at a time and weights the
// resulting activity with per-net capacitances. Not safe for concurrent
// use; see Clone.
type Meter struct {
	nl   *netlist.Netlist
	mode Mode

	// Immutable after New; shared between clones.
	inputNets []netlist.NetID
	gates     []gateRec // in topological order
	fanout    [][]int32 // per-net indices into gates
	caps      []float64
	depth     int

	// Mutable per-batch state.
	val     []uint64 // packed net values, bit l = lane l
	toggles []int64  // per-net toggles of the last batch
	qacc    [Lanes]float64

	// Packing scratch.
	uPack, vPack []uint64

	// Unit-delay wavefront scratch.
	mark    []int32  // per gate: step at which it was last marked dirty
	dirty   []int32  // gate indices to re-evaluate this step
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
	m := &Meter{
		nl:        nl,
		mode:      mode,
		inputNets: nl.InputNets(),
		depth:     nl.Depth(),
		caps:      make([]float64, nl.NumNets()),
		val:       make([]uint64, nl.NumNets()),
		toggles:   make([]int64, nl.NumNets()),
		uPack:     make([]uint64, len(nl.InputNets())),
		vPack:     make([]uint64, len(nl.InputNets())),
		mark:      make([]int32, nl.NumGates()),
	}
	for id := range m.caps {
		m.caps[id] = nl.NetCap(netlist.NetID(id))
	}
	// Flatten the gate table in topological order so the settle sweep is
	// one linear pass, and remember each gate's position for the fanout
	// lists the wavefront walks.
	order := nl.TopoOrder()
	m.gates = make([]gateRec, len(order))
	pos := make([]int32, nl.NumGates())
	for i, g := range order {
		rec := gateRec{kind: nl.GateKind(g), out: int32(nl.GateOutput(g))}
		for k, in := range nl.GateInputs(g) {
			rec.in[k] = int32(in)
		}
		m.gates[i] = rec
		pos[g] = int32(i)
	}
	m.fanout = make([][]int32, nl.NumNets())
	for id := 0; id < nl.NumNets(); id++ {
		pins := nl.FanoutPins(netlist.NetID(id))
		if len(pins) == 0 {
			continue
		}
		out := make([]int32, 0, len(pins))
		for _, p := range pins {
			out = append(out, pos[p.Gate])
		}
		m.fanout[id] = out
	}
	m.initConsts()
	return m, nil
}

// initConsts ties constant nets across all lanes; they are never touched
// again (settle and apply only write input nets and gate outputs).
func (m *Meter) initConsts() {
	for id := 0; id < m.nl.NumNets(); id++ {
		if v, isConst := m.nl.IsConst(netlist.NetID(id)); isConst {
			if v {
				m.val[id] = ^uint64(0)
			} else {
				m.val[id] = 0
			}
		}
	}
}

// Clone returns an independent meter over the same finalized netlist,
// sharing the immutable topology and owning fresh value/toggle/scratch
// state, for use on another goroutine.
func (m *Meter) Clone() *Meter {
	c := &Meter{
		nl:        m.nl,
		mode:      m.mode,
		inputNets: m.inputNets,
		gates:     m.gates,
		fanout:    m.fanout,
		caps:      m.caps,
		depth:     m.depth,
		val:       make([]uint64, len(m.val)),
		toggles:   make([]int64, len(m.toggles)),
		uPack:     make([]uint64, len(m.uPack)),
		vPack:     make([]uint64, len(m.vPack)),
		mark:      make([]int32, len(m.mark)),
	}
	c.initConsts()
	return c
}

// Netlist returns the simulated netlist.
func (m *Meter) Netlist() *netlist.Netlist { return m.nl }

// NumInputBits returns the input vector width expected by CycleBatch.
func (m *Meter) NumInputBits() int { return len(m.inputNets) }

// evalPacked computes a gate's packed output from the current net values.
// Each case is the bitwise form of the cells.Eval truth table, applied to
// all 64 lanes at once. Inverting kinds also invert the padding lanes of
// a partial batch; that is harmless, because padded lanes carry u == v
// and therefore never change after the settle sweep.
func (m *Meter) evalPacked(g *gateRec) uint64 {
	a := m.val[g.in[0]]
	switch g.kind {
	case cells.Buf:
		return a
	case cells.Inv:
		return ^a
	case cells.And2:
		return a & m.val[g.in[1]]
	case cells.And3:
		return a & m.val[g.in[1]] & m.val[g.in[2]]
	case cells.Or2:
		return a | m.val[g.in[1]]
	case cells.Or3:
		return a | m.val[g.in[1]] | m.val[g.in[2]]
	case cells.Nand2:
		return ^(a & m.val[g.in[1]])
	case cells.Nand3:
		return ^(a & m.val[g.in[1]] & m.val[g.in[2]])
	case cells.Nor2:
		return ^(a | m.val[g.in[1]])
	case cells.Nor3:
		return ^(a | m.val[g.in[1]] | m.val[g.in[2]])
	case cells.Xor2:
		return a ^ m.val[g.in[1]]
	case cells.Xor3:
		return a ^ m.val[g.in[1]] ^ m.val[g.in[2]]
	case cells.Xnor2:
		return ^(a ^ m.val[g.in[1]])
	case cells.Mux2:
		sel := m.val[g.in[2]]
		return (a &^ sel) | (m.val[g.in[1]] & sel)
	case cells.Aoi21:
		return ^((a & m.val[g.in[1]]) | m.val[g.in[2]])
	case cells.Oai21:
		return ^((a | m.val[g.in[1]]) & m.val[g.in[2]])
	}
	panic(fmt.Sprintf("bitsim: unhandled gate kind %v", g.kind))
}

// bump records a packed change mask on one net: per-net toggles via
// popcount, per-lane charge via a bit-scan over the set lanes.
func (m *Meter) bump(id int32, changed uint64) {
	m.toggles[id] += int64(bits.OnesCount64(changed))
	c := m.caps[id]
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
	w := len(m.inputNets)
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
	for i, id := range m.inputNets {
		m.val[id] = m.uPack[i]
	}
	for gi := range m.gates {
		g := &m.gates[gi]
		m.val[g.out] = m.evalPacked(g)
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
	for i, id := range m.inputNets {
		nv := m.vPack[i]
		if c := m.val[id] ^ nv; c != 0 {
			m.val[id] = nv
			m.bump(int32(id), c)
		}
	}
	for gi := range m.gates {
		g := &m.gates[gi]
		nv := m.evalPacked(g)
		if c := m.val[g.out] ^ nv; c != 0 {
			m.val[g.out] = nv
			m.bump(g.out, c)
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
	for i, id := range m.inputNets {
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
			for _, gi := range m.fanout[id] {
				if m.mark[gi] != step {
					m.mark[gi] = step
					m.dirty = append(m.dirty, gi)
				}
			}
		}
		m.pending = m.pending[:0]
		for _, gi := range m.dirty {
			m.pending = append(m.pending, m.evalPacked(&m.gates[gi]))
		}
		m.changed = m.changed[:0]
		for k, gi := range m.dirty {
			out := m.gates[gi].out
			nv := m.pending[k]
			if c := m.val[out] ^ nv; c != 0 {
				m.val[out] = nv
				m.bump(out, c)
				m.changed = append(m.changed, out)
			}
		}
	}
}
