// Package bitsim provides bit-parallel (parallel-pattern) gate-level
// simulation: 64 independent pattern pairs are packed into one uint64 per
// net, and every gate evaluates all 64 patterns with a handful of bitwise
// ops derived from the internal/cells truth tables. It is the software
// analogue of FPGA power-emulation — the lanes of a machine word play the
// role of the replicated hardware — and exists to make the paper's
// Hd-class characterization fast: each pair's charge comes out of
// bit-sliced per-lane counters instead of per-pattern event queues.
//
// Two activity modes are available:
//
//   - ZeroDelay reproduces the scalar zero-delay engine exactly: gates are
//     swept once in topological order and every net toggles at most once
//     per applied pair. Toggle counts are bit-identical to
//     sim.ZeroDelay's, which the cross-validation suite asserts.
//   - UnitDelay approximates glitch activity with a levelized unit-delay
//     wavefront: after the input edge, gates are re-evaluated in
//     synchronous steps (all gates whose inputs changed in step t produce
//     their new outputs in step t+1), and every inter-step output change
//     counts as a toggle. Path-length imbalance therefore produces
//     glitches just as in the event-driven reference, but all gates share
//     one unit delay instead of their per-kind intrinsic delays, so
//     per-net glitch counts agree only statistically — the event-driven
//     engine in internal/sim remains the golden reference, and
//     characterization cross-validates the two on sampled patterns.
//
// New compiles the wavefront once into a static schedule (schedule.go):
// which gates can change at which step, found from path lengths alone,
// grouped per step by gate kind and output capacitance class. A batch
// walks that schedule with no per-batch bookkeeping, evaluating each
// step against the pre-step values before committing it, and stops at
// the first step that changes no lane. This is power emulation's compile
// step done in software: the schedule fixes in advance what the hardware
// replicas would evaluate.
//
// A Meter reads its topology from the netlist's compiled netlist.Program,
// the one sim and power.Meter read, and weights changes with the same
// per-net switched capacitances, held as int64 tenths of a charge unit
// (netlist.Program.CapTenths). Nothing is counted per net: a step's
// changes are committed run by run, a run's change masks summed per lane
// by full adders four slots at a time into six carry-save registers, and
// those added once per run to its capacitance class's bit-sliced lane
// counters — the software form of power emulation's activity counters.
// The counters are turned into per-lane charges once per batch, so a
// batch returns the per-pair charges the macro-model characterizer
// consumes, exactly: a pair's charge is an integer number of tenths
// divided by ten once, the same in any summation order, lane and batch.
//
// # Concurrency
//
// A Meter is not safe for concurrent use, but Clone returns an
// independent meter sharing the immutable program and schedule, so one
// meter per goroutine may simulate concurrently — the same pooling
// contract as sim.Simulator.
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

// Arithmetic names how CycleBatch sums charge: per-lane int64 tenths of
// a charge unit (netlist.Program.CapTenths), divided by ten once per
// pair. Characterization identities (core.Fingerprint, checkpoint
// topology hashes) include it, so state priced under other charge
// arithmetic is refused instead of mixed.
const Arithmetic = "int64-tenths"

// Mode selects how switching activity is counted.
type Mode int

const (
	// ZeroDelay sweeps the gates once in topological order; every net
	// toggles at most once per pair. Matches sim.ZeroDelay bit-exactly.
	ZeroDelay Mode = iota
	// UnitDelay re-evaluates gates in synchronous unit-delay steps over a
	// schedule compiled once by New, accumulating the inter-step toggles
	// as approximate glitch activity. Its toggles equal those of a
	// wavefront that re-evaluates only the gates whose inputs changed.
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
	s    *schedule        // compiled once by New, shared between clones
	mode Mode

	// Mutable per-batch state.
	val    []uint64 // packed net values, bit l = lane l
	next   []uint64 // one UnitDelay step's new outputs, before commit
	outs   []int32  // and the nets they drive
	planes []uint64 // per-class lane counters, bit-sliced (see add)

	// Packing scratch.
	uPack, vPack []uint64
}

// New builds a bit-parallel meter for the netlist and compiles its
// schedule, charging each net's changes to the class of its capacitance.
// The netlist is finalized (validated) as a side effect.
func New(nl *netlist.Netlist, mode Mode) (*Meter, error) {
	if err := nl.Finalize(); err != nil {
		return nil, fmt.Errorf("bitsim: %w", err)
	}
	if mode != ZeroDelay && mode != UnitDelay {
		return nil, fmt.Errorf("bitsim: unknown mode %d", int(mode))
	}
	p := nl.Program()
	class, tenths := capClasses(p)
	return newMeter(nl, p, compile(p, mode, class, tenths), mode), nil
}

// newMeter returns a meter over the compiled program and schedule with
// fresh mutable state, sized by the nets and the widest step. Constant
// nets are tied across all lanes here and never touched again (settle
// and apply only write input nets and gate outputs).
func newMeter(nl *netlist.Netlist, p *netlist.Program, s *schedule, mode Mode) *Meter {
	m := &Meter{
		nl:     nl,
		p:      p,
		s:      s,
		mode:   mode,
		val:    make([]uint64, nl.NumNets()),
		next:   make([]uint64, s.widest),
		outs:   make([]int32, s.widest),
		planes: make([]uint64, s.planeOff[len(s.planeOff)-1]),
		uPack:  make([]uint64, len(p.Inputs)),
		vPack:  make([]uint64, len(p.Inputs)),
	}
	for _, t := range p.Ties {
		if t.Val {
			m.val[t.Net] = ^uint64(0)
		}
	}
	return m
}

// Clone returns an independent meter over the same finalized netlist,
// sharing the immutable program and schedule and owning fresh value,
// counter and scratch state, for use on another goroutine.
func (m *Meter) Clone() *Meter { return newMeter(m.nl, m.p, m.s, m.mode) }

// Netlist returns the simulated netlist.
func (m *Meter) Netlist() *netlist.Netlist { return m.nl }

// NumInputBits returns the input vector width expected by CycleBatch.
func (m *Meter) NumInputBits() int { return len(m.p.Inputs) }

// evalPacked computes a gate's packed output from the net values val.
// Each case is the bitwise form of the cells.Eval truth table, applied to
// all 64 lanes at once. Inverting kinds also invert the padding lanes of
// a partial batch; that is harmless, because padded lanes carry u == v
// and therefore never change after the settle sweep.
func evalPacked(val []uint64, g *netlist.Gate) uint64 {
	a := val[g.In[0]]
	switch g.Kind {
	case cells.Buf:
		return a
	case cells.Inv:
		return ^a
	case cells.And2:
		return a & val[g.In[1]]
	case cells.Or2:
		return a | val[g.In[1]]
	case cells.Xor2:
		return a ^ val[g.In[1]]
	case cells.Xnor2:
		return ^(a ^ val[g.In[1]])
	case cells.Mux2:
		sel := val[g.In[2]]
		return (a &^ sel) | (val[g.In[1]] & sel)
	}
	panic(fmt.Sprintf("bitsim: unhandled gate kind %v", g.Kind))
}

// add adds the bit-sliced lane counts r (bit j of each lane's count in
// r[j]) to the lane counters planes (bit j of each lane's total in
// planes[j]) in one ripple-carry pass, which stops once r is used up and
// the carry is gone. The schedule sizes each class's planes so that no
// total outgrows them before flush clears them.
func add(planes, r []uint64) {
	var carry uint64
	for j, x := range planes {
		var y uint64
		if j < len(r) {
			y = r[j]
		} else if carry == 0 {
			return
		}
		planes[j] = x ^ y ^ carry
		carry = x&y | carry&(x^y)
	}
}

// record adds a packed change mask of net id to its class's lane
// counters.
func (m *Meter) record(id int32, c uint64) {
	k := m.s.class[id]
	add(m.planes[m.s.planeOff[k]:m.s.planeOff[k+1]], []uint64{c})
}

// flush turns the class counters into per-lane charges, q[l] for lane l,
// and clears them. Each lane's total is an exact int64 count of tenths,
// divided by ten once.
func (m *Meter) flush(q []float64) {
	var tot [Lanes]int64
	s := m.s
	for k, w := range s.tenths {
		planes := m.planes[s.planeOff[k]:s.planeOff[k+1]]
		for j, x := range planes {
			wj := w << j
			for ; x != 0; x &= x - 1 {
				tot[bits.TrailingZeros64(x)] += wj
			}
			planes[j] = 0
		}
	}
	for l := range q {
		q[l] = float64(tot[l]) / 10
	}
}

// CycleBatch simulates up to Lanes pattern pairs: lane l settles on us[l]
// without recording activity, then switches to vs[l] and accumulates the
// transient. The per-pair charges are written into q[:len(us)]. Charges
// are counted in int64 tenths of a charge unit and divided by ten once
// per pair, so they are exact: any order of summation gives the same
// bits, and a pair prices the same in any batch and lane. No per-net
// activity is kept.
func (m *Meter) CycleBatch(us, vs []logic.Word, q []float64) {
	m.simulate(us, vs, q)
	m.flush(q[:len(us)])
}

// simulate checks and runs a batch, leaving its changes on the class
// counters for flush.
func (m *Meter) simulate(us, vs []logic.Word, q []float64) {
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
	// Settle on u: steady state is mode-independent, one topological sweep.
	for i, id := range m.p.Inputs {
		m.val[id] = m.uPack[i]
	}
	gates := m.p.Gates
	for gi := range gates {
		g := &gates[gi]
		m.val[g.Out] = evalPacked(m.val, g)
	}
	switch m.mode {
	case ZeroDelay:
		m.applyZeroDelay()
	case UnitDelay:
		m.applyUnitDelay()
	}
}

// edge switches the inputs to v, recording their changes, and reports
// whether any lane changed.
func (m *Meter) edge() bool {
	var any uint64
	for i, id := range m.p.Inputs {
		nv := m.vPack[i]
		if c := m.val[id] ^ nv; c != 0 {
			m.val[id] = nv
			m.record(int32(id), c)
			any |= c
		}
	}
	return any != 0
}

// applyZeroDelay switches the inputs to v and sweeps the gates once in
// topological order, counting at most one toggle per net — the exact
// semantics of sim.ZeroDelay, 64 lanes at a time.
func (m *Meter) applyZeroDelay() {
	m.edge()
	gates := m.p.Gates
	for gi := range gates {
		g := &gates[gi]
		nv := evalPacked(m.val, g)
		if c := m.val[g.Out] ^ nv; c != 0 {
			m.val[g.Out] = nv
			m.record(g.Out, c)
		}
	}
}

// applyUnitDelay switches the inputs to v and propagates the edge as a
// synchronous unit-delay wavefront over the compiled schedule. Each step
// evaluates all its gates against the pre-step values into next (two
// phases, so order within a step is irrelevant), then commits them run
// by run, counting every output change as a toggle of the run's class.
// The walk stops at the first step that changes no lane: after it every
// gate agrees with its inputs, so later steps could change nothing
// either. A gate at logic level L has its final inputs after step L-1,
// so outputs reach the settle(v) steady state within Depth() steps;
// every extra change on the way is an (approximate, unit-delay) glitch.
func (m *Meter) applyUnitDelay() {
	if !m.edge() {
		return
	}
	s := m.s
	gates := m.p.Gates
	val := m.val
	start, r0 := int32(0), int32(0)
	for st, end := range s.stepEnd {
		slots := s.slots[start:end]
		next, outs := m.next[:len(slots)], m.outs[:len(slots)]
		runs := s.runs[r0:s.stepRuns[st]]
		k := int32(0)
		for _, run := range runs {
			evalRun(next[k:run.end-start], outs[k:run.end-start], slots[k:run.end-start], gates, val, run.kind)
			k = run.end - start
		}
		var any uint64
		k = 0
		for _, run := range runs {
			// A run's changes are counted per lane in six carry-save
			// registers, bit j of a lane's count in cj; a run is at
			// most maxRun slots long, so none overflows. Full adders
			// fold the change masks in four slots at a time, then two,
			// then one.
			var c0, c1, c2, c3, c4, c5 uint64
			nv, out := next[k:run.end-start], outs[k:run.end-start]
			k = run.end - start
			for ; len(out) >= 4; nv, out = nv[4:], out[4:] {
				a, b := commit(val, out[0], nv[0]), commit(val, out[1], nv[1])
				c, d := commit(val, out[2], nv[2]), commit(val, out[3], nv[3])
				// c0+a+b+c+d leaves c0 and two carries h, g of weight 2;
				// c1+h+g leaves c1 and a carry f of weight 4.
				t := c0 ^ a
				u := t ^ b
				h := c0&a | t&b
				t = u ^ c
				c0 = t ^ d
				g := u&c | t&d
				t = c1 ^ h
				f := c1&h | t&g
				c1 = t ^ g
				c2, f = c2^f, c2&f
				c3, f = c3^f, c3&f
				c4, f = c4^f, c4&f
				c5 ^= f
			}
			if len(out) >= 2 {
				a, b := commit(val, out[0], nv[0]), commit(val, out[1], nv[1])
				t := c0 ^ a
				f := c0&a | t&b
				c0 = t ^ b
				c1, f = c1^f, c1&f
				c2, f = c2^f, c2&f
				c3, f = c3^f, c3&f
				c4, f = c4^f, c4&f
				c5 ^= f
				nv, out = nv[2:], out[2:]
			}
			if len(out) == 1 {
				c := commit(val, out[0], nv[0])
				c0, c = c0^c, c0&c
				c1, c = c1^c, c1&c
				c2, c = c2^c, c2&c
				c3, c = c3^c, c3&c
				c4, c = c4^c, c4&c
				c5 ^= c
			}
			if r := c0 | c1 | c2 | c3 | c4 | c5; r != 0 {
				add(m.planes[s.planeOff[run.class]:s.planeOff[run.class+1]], []uint64{c0, c1, c2, c3, c4, c5})
				any |= r
			}
		}
		if any == 0 {
			return
		}
		start, r0 = end, s.stepRuns[st]
	}
}

// commit sets net out to nv and returns the lanes that changed.
func commit(val []uint64, out int32, nv uint64) uint64 {
	c := val[out] ^ nv
	val[out] = nv
	return c
}

// evalRun evaluates a run of gates of one kind into next, and their
// output nets into outs, from the net values val: the bitwise truth
// tables of evalPacked, one kind per loop.
func evalRun(next []uint64, outs, slots []int32, gates []netlist.Gate, val []uint64, kind cells.Kind) {
	next, outs = next[:len(slots)], outs[:len(slots)]
	switch kind {
	case cells.Buf:
		for k, gi := range slots {
			g := &gates[gi]
			next[k], outs[k] = val[g.In[0]], g.Out
		}
	case cells.Inv:
		for k, gi := range slots {
			g := &gates[gi]
			next[k], outs[k] = ^val[g.In[0]], g.Out
		}
	case cells.And2:
		for k, gi := range slots {
			g := &gates[gi]
			next[k], outs[k] = val[g.In[0]]&val[g.In[1]], g.Out
		}
	case cells.Or2:
		for k, gi := range slots {
			g := &gates[gi]
			next[k], outs[k] = val[g.In[0]]|val[g.In[1]], g.Out
		}
	case cells.Xor2:
		for k, gi := range slots {
			g := &gates[gi]
			next[k], outs[k] = val[g.In[0]]^val[g.In[1]], g.Out
		}
	case cells.Xnor2:
		for k, gi := range slots {
			g := &gates[gi]
			next[k], outs[k] = ^(val[g.In[0]] ^ val[g.In[1]]), g.Out
		}
	case cells.Mux2:
		for k, gi := range slots {
			g := &gates[gi]
			sel := val[g.In[2]]
			next[k], outs[k] = val[g.In[0]]&^sel|val[g.In[1]]&sel, g.Out
		}
	default:
		panic(fmt.Sprintf("bitsim: unhandled gate kind %v", kind))
	}
}
