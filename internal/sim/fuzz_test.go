package sim

import (
	"math/rand"
	"testing"

	"hdpower/internal/cells"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
)

// randomCircuit builds a random combinational DAG: `inputs` primary input
// bits and `gates` gates of random kinds whose inputs are drawn from all
// previously created nets (guaranteeing acyclicity).
func randomCircuit(rng *rand.Rand, inputs, gates int) *netlist.Netlist {
	n := netlist.New("fuzz")
	bus := n.AddInputBus("a", inputs)
	pool := append([]netlist.NetID(nil), bus.Nets...)
	pool = append(pool, n.Const(false), n.Const(true))
	kinds := cells.Kinds()
	var outs []netlist.NetID
	for g := 0; g < gates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		c := cells.Lookup(kind)
		in := make([]netlist.NetID, c.NumInputs)
		for i := range in {
			in[i] = pool[rng.Intn(len(pool))]
		}
		out := n.AddGate(kind, in...)
		pool = append(pool, out)
		outs = append(outs, out)
	}
	// Mark the last few gate outputs so the netlist has outputs.
	k := len(outs)
	if k > 4 {
		k = 4
	}
	if k > 0 {
		n.MarkOutputBus("y", outs[len(outs)-k:])
	} else {
		n.MarkOutputBus("y", []netlist.NetID{bus.Nets[0]})
	}
	return n
}

// TestFuzzEnginesAgree cross-checks the two simulation engines on random
// circuits and random vector pairs: identical steady states, matching
// per-net toggle parity, and event-driven activity never below
// zero-delay activity.
func TestFuzzEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(20240705))
	for trial := 0; trial < 30; trial++ {
		inputs := 2 + rng.Intn(10)
		gates := 5 + rng.Intn(120)
		seed := rng.Int63()

		// Build the same circuit twice from the same sub-seed so each
		// engine owns an identical netlist.
		build := func() *netlist.Netlist {
			return randomCircuit(rand.New(rand.NewSource(seed)), inputs, gates)
		}
		zd, err := New(build(), ZeroDelay)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ed, err := New(build(), EventDriven)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mask := uint64(1)<<uint(inputs) - 1
		u := logic.FromUint(rng.Uint64()&mask, inputs)
		zd.Settle(u)
		ed.Settle(u)
		for step := 0; step < 20; step++ {
			v := logic.FromUint(rng.Uint64()&mask, inputs)
			zt := zd.Apply(v)
			et := ed.Apply(v)
			for id := range zt {
				if zt[id]%2 != et[id]%2 {
					t.Fatalf("trial %d step %d: net %d toggle parity differs (%d vs %d)",
						trial, step, id, zt[id], et[id])
				}
				if et[id] < zt[id] {
					t.Fatalf("trial %d step %d: net %d event toggles %d < zero-delay %d",
						trial, step, id, et[id], zt[id])
				}
			}
			for id := 0; id < zd.Netlist().NumNets(); id++ {
				if zd.NetValue(netlist.NetID(id)) != ed.NetValue(netlist.NetID(id)) {
					t.Fatalf("trial %d step %d: net %d steady state differs", trial, step, id)
				}
			}
		}
	}
}

// TestFuzzZeroDelayMatchesDirectEvaluation checks the zero-delay engine
// against an independent recursive evaluation of the gate functions.
func TestFuzzZeroDelayMatchesDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		inputs := 2 + rng.Intn(8)
		gates := 5 + rng.Intn(60)
		nl := randomCircuit(rand.New(rand.NewSource(int64(trial))), inputs, gates)
		s, err := New(nl, ZeroDelay)
		if err != nil {
			t.Fatal(err)
		}
		mask := uint64(1)<<uint(inputs) - 1
		for step := 0; step < 10; step++ {
			vec := logic.FromUint(rng.Uint64()&mask, inputs)
			s.Settle(vec)

			// Independent evaluation: memoized recursion over drivers.
			memo := make(map[netlist.NetID]bool)
			var eval func(id netlist.NetID) bool
			eval = func(id netlist.NetID) bool {
				if v, ok := memo[id]; ok {
					return v
				}
				if v, isConst := nl.IsConst(id); isConst {
					return v
				}
				for i, inNet := range nl.InputNets() {
					if inNet == id {
						return vec.Bit(i)
					}
				}
				// find the driving gate
				for g := 0; g < nl.NumGates(); g++ {
					if nl.GateOutput(netlist.GateID(g)) == id {
						ins := nl.GateInputs(netlist.GateID(g))
						vals := make([]bool, len(ins))
						for i, in := range ins {
							vals[i] = eval(in)
						}
						v := cells.Eval(nl.GateKind(netlist.GateID(g)), vals)
						memo[id] = v
						return v
					}
				}
				t.Fatalf("net %d has no driver", id)
				return false
			}
			for id := 0; id < nl.NumNets(); id++ {
				if s.NetValue(netlist.NetID(id)) != eval(netlist.NetID(id)) {
					t.Fatalf("trial %d: net %d (%s) disagrees with direct evaluation",
						trial, id, nl.NetName(netlist.NetID(id)))
				}
			}
		}
	}
}
