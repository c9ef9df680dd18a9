package netlist

// verify.go is the netlist's one validity check: a static pass that
// cross-checks a netlist's structure against first principles before any
// simulator compiles it. Verify recomputes drivers, connectivity and shape
// from the gate and bus tables alone, collects every finding, and names
// the nets involved, so a corrupted or hand-surgered circuit is rejected
// with an actionable diagnostic instead of a panic deep inside an engine.
// Finalize runs it and keeps the gate order and depth of its Kahn pass.
//
// Checks:
//
//	comb-loop        combinational cycle (Kahn residue + an extracted
//	                 concrete cycle through named nets)        error
//	floating-net     a net with no driver that feeds gate pins  error
//	multi-driven     a net driven by more than one source       error
//	width-mismatch   bus/gate shape violations (empty bus,
//	                 out-of-range ids, wrong gate arity)        error
//	dup-bus-net      the same net repeated inside one bus
//	                 (legal for sign extension, worth seeing)   warning
//	unreachable-gate a gate whose output can never reach a
//	                 declared output bus                        warning
//
// Every engine constructor finalizes, so no pattern is simulated on a
// netlist that fails a check; internal/core finalizes again before each
// characterization, which re-verifies only a netlist that surgery has
// definalized. `hdpower verify` exposes the full report (with fault
// injection) on the command line.

import (
	"fmt"
	"strings"

	"hdpower/internal/cells"
)

// Severity ranks a verification diagnostic.
type Severity int

const (
	// SevWarning marks a structural oddity that simulation tolerates.
	SevWarning Severity = iota
	// SevError marks a defect that makes simulation results meaningless
	// (or impossible); VerifyErr fails the netlist on any of these.
	SevError
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// DiagCode identifies one verification check.
type DiagCode string

// The verification checks, in the order Verify reports them.
const (
	DiagFloatingNet DiagCode = "floating-net"
	DiagMultiDriven DiagCode = "multi-driven"
	DiagWidth       DiagCode = "width-mismatch"
	DiagDupBusNet   DiagCode = "dup-bus-net"
	DiagCombLoop    DiagCode = "comb-loop"
	DiagUnreachable DiagCode = "unreachable-gate"
)

// Diag is one verification finding. Nets carries the names of every net
// involved (for a comb-loop, the cycle in order), so callers can report
// failures in the designer's vocabulary rather than as internal ids.
type Diag struct {
	Code     DiagCode
	Severity Severity
	// Nets names the nets involved; for a comb-loop this is the cycle in
	// traversal order (first net repeated at the end).
	Nets []string
	// Gates lists the gate instances involved (empty when not gate-specific).
	Gates []GateID
	// Msg is the human-readable finding.
	Msg string
}

// String renders the diagnostic with its named nets.
func (d Diag) String() string {
	s := fmt.Sprintf("%s: %s: %s", d.Severity, d.Code, d.Msg)
	if len(d.Nets) > 0 {
		s += " [" + strings.Join(d.Nets, " -> ") + "]"
	}
	return s
}

// VerifyError is the typed failure VerifyErr returns: every error-severity
// diagnostic of the run, with the netlist's name.
type VerifyError struct {
	Name  string
	Diags []Diag
}

func (e *VerifyError) Error() string {
	msgs := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		msgs[i] = d.String()
	}
	return fmt.Sprintf("netlist %s: verify failed with %d error(s): %s",
		e.Name, len(e.Diags), strings.Join(msgs, "; "))
}

// Verify statically lints the netlist and returns every finding, warnings
// included. It never finalizes, panics, or mutates: broken netlists that
// Finalize rejects (or that would corrupt a simulator) are exactly its
// subject matter. The result is deterministic: diagnostics are emitted in
// check order and net-id order.
func (n *Netlist) Verify() []Diag {
	diags, _, _ := n.verify()
	return diags
}

// verify is Verify, and also returns the topological gate order and the
// logic depth of its Kahn pass (nil and 0 when the gates form a cycle).
func (n *Netlist) verify() (diags []Diag, order []GateID, depth int) {
	// Ground-truth driver census: ignore the cached gate driver and count
	// each net's sources from the declarations (input buses, const ties)
	// and the gate table, so a desynchronized cache is caught instead of
	// trusted.
	drivers := make([]int, len(n.nets))
	for id, nt := range n.nets {
		if nt.drvKind == driverInput || nt.drvKind == driverConst {
			drivers[id]++
		}
	}
	for _, g := range n.gates {
		if g.out >= 0 && int(g.out) < len(n.nets) {
			drivers[g.out]++
		}
	}

	// floating-net: undriven nets. Undriven nets that also feed nothing
	// are reported too — they are dead weight, but still an error because
	// the builder can never produce them.
	for id, c := range drivers {
		if c == 0 {
			diags = append(diags, Diag{
				Code:     DiagFloatingNet,
				Severity: SevError,
				Nets:     []string{n.nets[id].name},
				Msg: fmt.Sprintf("net %q has no driver but %d fanout pin(s)",
					n.nets[id].name, len(n.nets[id].fanout)),
			})
		}
	}

	// multi-driven: more than one source on a net.
	for id, c := range drivers {
		if c > 1 {
			var gates []GateID
			for gi, g := range n.gates {
				if g.out == NetID(id) {
					gates = append(gates, GateID(gi))
				}
			}
			diags = append(diags, Diag{
				Code:     DiagMultiDriven,
				Severity: SevError,
				Nets:     []string{n.nets[id].name},
				Gates:    gates,
				Msg: fmt.Sprintf("net %q is driven by %d sources (%s)",
					n.nets[id].name, c, n.describeDrivers(NetID(id), gates)),
			})
		}
	}

	// width-mismatch and dup-bus-net: bus and gate shape.
	checkBus := func(role string, b Bus) {
		if len(b.Nets) == 0 {
			diags = append(diags, Diag{
				Code:     DiagWidth,
				Severity: SevError,
				Msg:      fmt.Sprintf("%s bus %q has width 0", role, b.Name),
			})
			return
		}
		seen := make(map[NetID]int, len(b.Nets))
		for bit, id := range b.Nets {
			if id < 0 || int(id) >= len(n.nets) {
				diags = append(diags, Diag{
					Code:     DiagWidth,
					Severity: SevError,
					Msg: fmt.Sprintf("%s bus %q bit %d references net id %d out of range (have %d nets)",
						role, b.Name, bit, id, len(n.nets)),
				})
				continue
			}
			if first, dup := seen[id]; dup {
				diags = append(diags, Diag{
					Code:     DiagDupBusNet,
					Severity: SevWarning,
					Nets:     []string{n.nets[id].name},
					Msg: fmt.Sprintf("%s bus %q repeats net %q at bits %d and %d",
						role, b.Name, n.nets[id].name, first, bit),
				})
				continue
			}
			seen[id] = bit
		}
	}
	for _, b := range n.inputs {
		checkBus("input", b)
	}
	for _, b := range n.outputs {
		checkBus("output", b)
	}
	for gi, g := range n.gates {
		c := cells.Lookup(g.kind)
		if len(g.in) != c.NumInputs {
			diags = append(diags, Diag{
				Code:     DiagWidth,
				Severity: SevError,
				Gates:    []GateID{GateID(gi)},
				Msg: fmt.Sprintf("gate %d (%s) has %d inputs, cell wants %d",
					gi, g.kind, len(g.in), c.NumInputs),
			})
		}
	}

	// comb-loop: Kahn's algorithm over the ground-truth gate graph.
	loop, order, depth := n.kahn()
	diags = append(diags, loop...)

	// unreachable-gate: reverse reachability from the declared output
	// buses. Skipped entirely when no outputs are declared (a partially
	// built netlist), where everything would be trivially unreachable.
	if len(n.outputs) > 0 {
		diags = append(diags, n.findUnreachable()...)
	}
	return diags, order, depth
}

// VerifyErr runs Verify and returns a typed *VerifyError carrying the
// error-severity diagnostics, or nil when the netlist is simulable.
// Warnings never fail a netlist. Finalize fails with the same error.
func (n *Netlist) VerifyErr() error {
	return n.verifyError(n.Verify())
}

// verifyError is the *VerifyError of the error-severity diagnostics among
// diags, or nil when there are none.
func (n *Netlist) verifyError(diags []Diag) error {
	var errs []Diag
	for _, d := range diags {
		if d.Severity == SevError {
			errs = append(errs, d)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return &VerifyError{Name: n.Name, Diags: errs}
}

// describeDrivers names a net's sources: its cached input or constant
// driver, then the gates the gate table says drive it.
func (n *Netlist) describeDrivers(id NetID, gates []GateID) string {
	var parts []string
	switch n.nets[id].drvKind {
	case driverInput:
		parts = append(parts, "primary input")
	case driverConst:
		parts = append(parts, "constant tie")
	}
	for _, g := range gates {
		parts = append(parts, fmt.Sprintf("gate %d (%s)", g, n.gates[g].kind))
	}
	return strings.Join(parts, ", ")
}

// kahn orders the gates by Kahn's algorithm over the ground-truth gate
// graph, in which a net fed by gate A among gate B's inputs makes an
// A->B edge. A gate's level is one past its deepest driver's, and depth
// is the number of levels (0 with no gates). When gates are left over,
// they hold a cycle: kahn returns no order and one comb-loop diagnostic
// naming a concrete cycle through its nets.
func (n *Netlist) kahn() (loop []Diag, order []GateID, depth int) {
	drvGate := make([]GateID, len(n.nets))
	for id := range drvGate {
		drvGate[id] = -1
	}
	for gi, g := range n.gates {
		if g.out >= 0 && int(g.out) < len(n.nets) {
			drvGate[g.out] = GateID(gi) // ties break toward the last driver
		}
	}
	driver := func(id NetID) GateID {
		if id < 0 || int(id) >= len(n.nets) {
			return -1 // already reported as width-mismatch
		}
		return drvGate[id]
	}
	// succ[off[g]:off[g+1]] lists the gates g's output feeds, one
	// entry per input pin, in gate and pin order.
	indeg := make([]int, len(n.gates))
	off := make([]int, len(n.gates)+1)
	for gi, g := range n.gates {
		for _, in := range g.in {
			if d := driver(in); d >= 0 {
				indeg[gi]++
				off[d+1]++
			}
		}
	}
	for g := range n.gates {
		off[g+1] += off[g]
	}
	succ := make([]GateID, off[len(n.gates)])
	fill := append([]int(nil), off...)
	for gi, g := range n.gates {
		for _, in := range g.in {
			if d := driver(in); d >= 0 {
				succ[fill[d]] = GateID(gi)
				fill[d]++
			}
		}
	}
	// order is also the FIFO queue: a gate joins it when its last driver
	// has been ordered.
	order = make([]GateID, 0, len(n.gates))
	for gi := range n.gates {
		if indeg[gi] == 0 {
			order = append(order, GateID(gi))
		}
	}
	level := make([]int, len(n.gates))
	for i := 0; i < len(order); i++ {
		g := order[i]
		depth = max(depth, level[g]+1)
		for _, s := range succ[off[g]:off[g+1]] {
			level[s] = max(level[s], level[g]+1)
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) == len(n.gates) {
		return nil, order, depth
	}
	// The gates with residual in-degree are the cyclic core plus its
	// downstream cone. Every residual gate has at least one residual
	// predecessor (that is what kept it unordered), so walking backwards
	// along residual predecessors from any residual gate must revisit a
	// gate; the revisited segment, reversed, is one concrete cycle.
	residual := func(g GateID) bool { return indeg[g] > 0 }
	var start GateID = -1
	for gi := range n.gates {
		if residual(GateID(gi)) {
			start = GateID(gi)
			break
		}
	}
	visitedAt := make(map[GateID]int)
	var path []GateID
	g := start
	for {
		if at, seen := visitedAt[g]; seen {
			path = path[at:]
			break
		}
		visitedAt[g] = len(path)
		path = append(path, g)
		next := GateID(-1)
		for _, in := range n.gates[g].in {
			if p := driver(in); p >= 0 && residual(p) {
				next = p
				break
			}
		}
		if next < 0 {
			break // unreachable: residual gates always have residual preds
		}
		g = next
	}
	// path is a cycle in predecessor order; reverse it so the report
	// reads in signal-flow direction.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	nets := make([]string, 0, len(path)+1)
	gates := make([]GateID, 0, len(path))
	for _, pg := range path {
		nets = append(nets, n.nets[n.gates[pg].out].name)
		gates = append(gates, pg)
	}
	if len(nets) > 0 {
		nets = append(nets, nets[0]) // close the cycle visually
	}
	return []Diag{{
		Code:     DiagCombLoop,
		Severity: SevError,
		Nets:     nets,
		Gates:    gates,
		Msg: fmt.Sprintf("combinational cycle: %d of %d gates are unorderable",
			len(n.gates)-len(order), len(n.gates)),
	}}, nil, 0
}

// findUnreachable reports gates whose output can never influence any
// declared output bus.
func (n *Netlist) findUnreachable() []Diag {
	reached := make([]bool, len(n.gates))
	var stack []GateID
	push := func(id NetID) {
		if id < 0 || int(id) >= len(n.nets) {
			return
		}
		nt := n.nets[id]
		if nt.drvKind == driverGate && int(nt.drvGate) < len(n.gates) && !reached[nt.drvGate] {
			reached[nt.drvGate] = true
			stack = append(stack, nt.drvGate)
		}
	}
	for _, b := range n.outputs {
		for _, id := range b.Nets {
			push(id)
		}
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range n.gates[g].in {
			push(in)
		}
	}
	var diags []Diag
	for gi := range n.gates {
		if !reached[gi] {
			out := n.gates[gi].out
			name := fmt.Sprintf("gate %d", gi)
			if out >= 0 && int(out) < len(n.nets) {
				name = n.nets[out].name
			}
			diags = append(diags, Diag{
				Code:     DiagUnreachable,
				Severity: SevWarning,
				Nets:     []string{name},
				Gates:    []GateID{GateID(gi)},
				Msg: fmt.Sprintf("gate %d (%s) output %q cannot reach any output bus",
					gi, n.gates[gi].kind, name),
			})
		}
	}
	return diags
}

// Surgery — controlled corruption for fault-injection studies and for
// exercising Verify. These methods deliberately bypass every guarantee
// the builder provides (single drivers, acyclicity) and de-finalize the
// netlist, so a later Finalize revalidates from scratch. They are the
// only sanctioned way to construct the broken circuits the linter and
// `hdpower verify -inject` exist to reject; production code must never
// call them.

// definalize drops the cached topological structure and the compiled
// Program, so analysis methods and engines revalidate after surgery.
func (n *Netlist) definalize() {
	n.finalized = false
	n.order = nil
	n.depth = 0
	n.prog = nil
}

// RewireGateInput redirects input pin `pin` of gate g to net id. Wiring a
// gate's own (transitive) output back into one of its inputs creates a
// combinational loop — which is the point. Panics on out-of-range
// arguments; the structural consequences are Verify's job.
func (n *Netlist) RewireGateInput(g GateID, input int, id NetID) {
	if g < 0 || int(g) >= len(n.gates) {
		panic(fmt.Sprintf("netlist: gate %d out of range", g))
	}
	if input < 0 || input >= len(n.gates[g].in) {
		panic(fmt.Sprintf("netlist: gate %d has no input %d", g, input))
	}
	n.checkNet(id)
	old := n.gates[g].in[input]
	n.gates[g].in[input] = id
	// Maintain the fanout cache on both nets so Verify's reachability and
	// Finalize's ordering see the surgered truth.
	fo := n.nets[old].fanout[:0]
	for _, p := range n.nets[old].fanout {
		if !(p.gate == g && p.input == input) {
			fo = append(fo, p)
		}
	}
	n.nets[old].fanout = fo
	n.nets[id].fanout = append(n.nets[id].fanout, pin{gate: g, input: input})
	n.definalize()
}

// RedriveGateOutput makes gate g drive net id instead of its own output
// net. The target net keeps its existing driver and becomes multi-driven;
// the gate's former output net is left with no driver (floating) but
// keeps its fanout. Panics on out-of-range arguments.
func (n *Netlist) RedriveGateOutput(g GateID, id NetID) {
	if g < 0 || int(g) >= len(n.gates) {
		panic(fmt.Sprintf("netlist: gate %d out of range", g))
	}
	n.checkNet(id)
	old := n.gates[g].out
	if old == id {
		return
	}
	n.gates[g].out = id
	// Keep each net's cached driver one the gate table agrees with, so a
	// netlist that verifies again after surgery compiles the capacitance
	// of the gate that drives it.
	if nt := &n.nets[old]; nt.drvKind == driverGate && nt.drvGate == g {
		nt.drvKind = driverNone
		for gi, gt := range n.gates {
			if gt.out == old {
				nt.drvKind, nt.drvGate = driverGate, GateID(gi)
				break
			}
		}
	}
	if nt := &n.nets[id]; nt.drvKind == driverNone {
		nt.drvKind, nt.drvGate = driverGate, g
	}
	n.definalize()
}
