package netlist

import (
	"errors"
	"math/rand"
	"testing"

	"hdpower/internal/cells"
)

// randomDAG builds a random combinational netlist the way internal/sim's
// randomCircuit does: `inputs` primary input bits, both constants, and
// `gates` gates of random kinds whose inputs are drawn from every net
// created before them, so the builder alone cannot make a cycle.
func randomDAG(rng *rand.Rand, inputs, gates int) *Netlist {
	n := New("fuzz")
	bus := n.AddInputBus("a", inputs)
	pool := append([]NetID(nil), bus.Nets...)
	pool = append(pool, n.Const(false), n.Const(true))
	kinds := cells.Kinds()
	for g := 0; g < gates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		in := make([]NetID, cells.Lookup(kind).NumInputs)
		for i := range in {
			in[i] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, n.AddGate(kind, in...))
	}
	outs := pool[len(pool)-min(gates, 4):]
	if gates == 0 {
		outs = bus.Nets[:1]
	}
	n.MarkOutputBus("y", outs)
	return n
}

// FuzzFinalize holds Finalize to Verify's decision on random builder DAGs
// after zero to two random surgeries: Finalize fails exactly when
// VerifyErr does, with a *VerifyError. On success every gate comes after
// the gates that drive its inputs, Depth is the longest gate path (0 with
// no gates), the compiled capacitances are the ones the gate table
// implies, and a second Finalize does nothing.
func FuzzFinalize(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), uint8(3), uint8(30), uint8(1))
	f.Add(int64(4), uint8(6), uint8(60), uint8(2))
	f.Add(int64(5), uint8(2), uint8(8), uint8(2))
	// Two redrives that leave the netlist valid, with both nets' drivers
	// moved and back.
	f.Add(int64(23), uint8(0x92), uint8(0x17), uint8(0xb0))
	f.Fuzz(func(t *testing.T, seed int64, inputs, gates, surgeries uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := randomDAG(rng, 1+int(inputs)%16, int(gates))
		for k := 0; k < int(surgeries)%3 && n.NumGates() > 0; k++ {
			g := GateID(rng.Intn(n.NumGates()))
			id := NetID(rng.Intn(n.NumNets()))
			if rng.Intn(2) == 0 {
				n.RewireGateInput(g, rng.Intn(len(n.GateInputs(g))), id)
			} else {
				n.RedriveGateOutput(g, id)
			}
		}
		verr := n.VerifyErr()
		err := n.Finalize()
		if (err == nil) != (verr == nil) {
			t.Fatalf("Finalize = %v, VerifyErr = %v", err, verr)
		}
		if err != nil {
			var ve *VerifyError
			if !errors.As(err, &ve) || err.Error() != verr.Error() {
				t.Fatalf("Finalize = %v, want VerifyErr's %v", err, verr)
			}
			if n.finalized || n.order != nil || n.prog != nil {
				t.Fatal("a failed Finalize left the netlist finalized")
			}
			return
		}

		// The gate table is the ground truth: drv maps each gate-driven
		// net to its (single, since the netlist verified) driver.
		drv := make(map[NetID]GateID)
		for g := range n.gates {
			drv[n.GateOutput(GateID(g))] = GateID(g)
		}
		order := n.TopoOrder()
		if len(order) != n.NumGates() {
			t.Fatalf("order holds %d of %d gates", len(order), n.NumGates())
		}
		level := make([]int, n.NumGates())
		placed := make([]bool, n.NumGates())
		depth := 0
		for _, g := range order {
			if placed[g] {
				t.Fatalf("gate %d ordered twice", g)
			}
			for _, in := range n.GateInputs(g) {
				if d, ok := drv[in]; ok {
					if !placed[d] {
						t.Fatalf("gate %d ordered before its driver %d", g, d)
					}
					level[g] = max(level[g], level[d])
				}
			}
			placed[g] = true
			level[g]++
			depth = max(depth, level[g])
		}
		if n.Depth() != depth || n.Stats().Depth != depth {
			t.Fatalf("Depth = %d, Stats().Depth = %d, longest gate path %d", n.Depth(), n.Stats().Depth, depth)
		}

		p := n.Program()
		want := make([]int64, n.NumNets())
		for id := range want {
			want[id] = piTenths
			if d, ok := drv[NetID(id)]; ok {
				want[id] = cellTenths[n.GateKind(d)].out
			}
		}
		for _, g := range n.gates {
			for _, in := range g.in {
				want[in] += cellTenths[g.kind].in
			}
		}
		for id, c := range p.CapTenths {
			if c != want[id] {
				t.Fatalf("net %d: compiled %d tenths, gate table %d", id, c, want[id])
			}
		}

		if err := n.Finalize(); err != nil || n.Program() != p {
			t.Fatalf("second Finalize = %v, or it recompiled", err)
		}
	})
}
