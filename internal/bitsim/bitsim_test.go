package bitsim_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hdpower/internal/bitsim"
	"hdpower/internal/cells"
	"hdpower/internal/dwlib"
	"hdpower/internal/faultpoint"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
	"hdpower/internal/power"
	"hdpower/internal/sim"
)

// Glitch tolerances bound the relative disagreement in total switching
// activity between the unit-delay bit-parallel engine and the golden
// event-driven engine (per-gate transport delays 1–3). The two glitch
// models differ by construction — unit delay collapses every gate to one
// step — so activity totals drift: ~a few percent on adder/tree
// structures, up to ~32% on deep multiplier arrays where transport-delay
// spread filters hazards that unit delay keeps. The per-case tolerances
// pin the empirical drift so a regression that breaks glitch propagation
// (e.g. losing a wavefront) fails loudly.
const (
	glitchTolAdder      = 0.15
	glitchTolMultiplier = 0.40
)

func buildModule(t testing.TB, name string, width int) *netlist.Netlist {
	t.Helper()
	mod, err := dwlib.Lookup(name)
	if err != nil {
		t.Fatalf("lookup %s: %v", name, err)
	}
	nl := mod.Build(width)
	if err := nl.Finalize(); err != nil {
		t.Fatalf("finalize %s-%d: %v", name, width, err)
	}
	return nl
}

func randWord(rng *rand.Rand, m int) logic.Word {
	w := logic.NewWord(m)
	for i := 0; i < m; i++ {
		if rng.Int63()&1 == 1 {
			w.Set(i, true)
		}
	}
	return w
}

func randPairs(rng *rand.Rand, m, n int) (us, vs []logic.Word) {
	us = make([]logic.Word, n)
	vs = make([]logic.Word, n)
	for j := 0; j < n; j++ {
		us[j] = randWord(rng, m)
		vs[j] = randWord(rng, m)
	}
	return us, vs
}

// scalarReference prices every pair on the scalar engine and accumulates
// per-net toggles plus per-pair charge — the ground truth the bit-parallel
// engine must reproduce (exactly for ZeroDelay, approximately for glitches).
func scalarReference(t testing.TB, nl *netlist.Netlist, engine sim.Engine,
	us, vs []logic.Word) ([]int64, []float64) {
	t.Helper()
	s, err := sim.New(nl, engine)
	if err != nil {
		t.Fatal(err)
	}
	meter, err := power.NewMeter(nl, engine)
	if err != nil {
		t.Fatal(err)
	}
	toggles := make([]int64, nl.NumNets())
	q := make([]float64, len(us))
	for j := range us {
		s.Settle(us[j])
		for id, n := range s.Apply(vs[j]) {
			toggles[id] += n
		}
		meter.Reset(us[j])
		q[j] = meter.Cycle(vs[j])
	}
	return toggles, q
}

// batchAll runs pairs through one bit-parallel meter in Lanes-sized
// batches, accumulating per-net toggles and per-pair charges.
func batchAll(t testing.TB, m *bitsim.Meter, us, vs []logic.Word) ([]int64, []float64) {
	t.Helper()
	toggles := make([]int64, m.Netlist().NumNets())
	q := make([]float64, len(us))
	for off := 0; off < len(us); off += bitsim.Lanes {
		end := off + bitsim.Lanes
		if end > len(us) {
			end = len(us)
		}
		for id, n := range m.CycleBatch(us[off:end], vs[off:end], q[off:end]) {
			toggles[id] += n
		}
	}
	return toggles, q
}

// referenceActivity is the per-lane full-sweep reference both modes
// must match exactly. Per pair it settles on u with one topological pass,
// switches the inputs to v and then, for zero delay, sweeps the gates
// once in topological order; for unit delay, every step evaluates every
// gate against the pre-step values, commits, and stops at the first step
// in which no net changes. Toggles are counted per net over all pairs,
// and each pair's charge is summed in integer tenths.
func referenceActivity(p *netlist.Program, mode bitsim.Mode, us, vs []logic.Word) ([]int64, []float64) {
	val := make([]bool, len(p.CapTenths))
	for _, t := range p.Ties {
		val[t.Net] = t.Val
	}
	eval := func(g *netlist.Gate) bool {
		var in [3]bool
		n := cells.Lookup(g.Kind).NumInputs
		for k := 0; k < n; k++ {
			in[k] = val[g.In[k]]
		}
		return cells.Eval(g.Kind, in[:n])
	}
	toggles := make([]int64, len(val))
	q := make([]float64, len(us))
	next := make([]bool, len(p.Gates))
	for j := range us {
		for i, id := range p.Inputs {
			val[id] = us[j].Bit(i)
		}
		for gi := range p.Gates {
			val[p.Gates[gi].Out] = eval(&p.Gates[gi])
		}
		var tenths int64
		set := func(id int, v bool) bool {
			if val[id] == v {
				return false
			}
			val[id] = v
			toggles[id]++
			tenths += p.CapTenths[id]
			return true
		}
		for i, id := range p.Inputs {
			set(int(id), vs[j].Bit(i))
		}
		if mode == bitsim.ZeroDelay {
			for gi := range p.Gates {
				set(int(p.Gates[gi].Out), eval(&p.Gates[gi]))
			}
		} else {
			for changed := true; changed; {
				for gi := range p.Gates {
					next[gi] = eval(&p.Gates[gi])
				}
				changed = false
				for gi := range p.Gates {
					if set(int(p.Gates[gi].Out), next[gi]) {
						changed = true
					}
				}
			}
		}
		q[j] = float64(tenths) / 10
	}
	return toggles, q
}

// matchReference checks a meter against referenceActivity toggle for
// toggle and charge for charge, with ==.
func matchReference(t *testing.T, nl *netlist.Netlist, mode bitsim.Mode, us, vs []logic.Word) {
	t.Helper()
	m, err := bitsim.New(nl, mode)
	if err != nil {
		t.Fatal(err)
	}
	got, gotQ := batchAll(t, m, us, vs)
	want, wantQ := referenceActivity(nl.Program(), mode, us, vs)
	for id := range want {
		if got[id] != want[id] {
			t.Fatalf("%s net %d: toggles %d, reference %d", mode, id, got[id], want[id])
		}
	}
	for j := range wantQ {
		if gotQ[j] != wantQ[j] {
			t.Fatalf("%s pair %d: charge %v, reference %v", mode, j, gotQ[j], wantQ[j])
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}

// TestZeroDelayMatchesScalar checks the bit-identity contract on the whole
// module catalog at 8 and 16 bits: in ZeroDelay mode the 64-lane engine
// must report exactly the per-net toggle counts of the scalar zero-delay
// simulator, and per-pair charges equal up to float summation order.
func TestZeroDelayMatchesScalar(t *testing.T) {
	for _, name := range dwlib.Names() {
		for _, width := range []int{8, 16} {
			nl := buildModule(t, name, width)
			t.Run(nl.Name, func(t *testing.T) {
				m, err := bitsim.New(nl, bitsim.ZeroDelay)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(width)*1000 + int64(len(name))))
				us, vs := randPairs(rng, m.NumInputBits(), 160) // 2.5 batches: exercises a ragged tail
				got, gotQ := batchAll(t, m, us, vs)
				want, wantQ := scalarReference(t, nl, sim.ZeroDelay, us, vs)
				for id := range want {
					if got[id] != want[id] {
						t.Fatalf("net %d: toggles %d, scalar %d", id, got[id], want[id])
					}
				}
				for j := range wantQ {
					if relDiff(gotQ[j], wantQ[j]) > 1e-9 {
						t.Fatalf("pair %d: charge %g, scalar %g", j, gotQ[j], wantQ[j])
					}
				}
			})
		}
	}
}

// TestUnitDelayInvariants checks the glitch-approximation mode against the
// zero-delay baseline on the catalog: per-net toggle parity must match
// (both engines settle to the same steady state) and unit-delay activity
// can only add hazard pairs, never remove transitions.
func TestUnitDelayInvariants(t *testing.T) {
	for _, name := range dwlib.Names() {
		nl := buildModule(t, name, 8)
		t.Run(nl.Name, func(t *testing.T) {
			ud, err := bitsim.New(nl, bitsim.UnitDelay)
			if err != nil {
				t.Fatal(err)
			}
			zd, err := bitsim.New(nl, bitsim.ZeroDelay)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			us, vs := randPairs(rng, ud.NumInputBits(), 128)
			unit, _ := batchAll(t, ud, us, vs)
			zero, _ := batchAll(t, zd, us, vs)
			for id := range unit {
				if unit[id]%2 != zero[id]%2 {
					t.Fatalf("net %d: toggle parity %d vs zero-delay %d (steady states diverge)",
						id, unit[id], zero[id])
				}
				if unit[id] < zero[id] {
					t.Fatalf("net %d: unit-delay toggles %d below zero-delay %d",
						id, unit[id], zero[id])
				}
			}
		})
	}
}

// TestEnginesMatchReference pins both modes exactly, not by invariants:
// on the whole catalog at widths 8 and 16, over one full and one 37-lane
// partial batch, every net's toggles and every pair's charge equal the
// per-lane full-sweep reference.
func TestEnginesMatchReference(t *testing.T) {
	for _, name := range dwlib.Names() {
		for _, width := range []int{8, 16} {
			nl := buildModule(t, name, width)
			t.Run(nl.Name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(width)*7919 + int64(len(name))))
				us, vs := randPairs(rng, nl.NumInputBits(), bitsim.Lanes+37)
				matchReference(t, nl, bitsim.ZeroDelay, us, vs)
				matchReference(t, nl, bitsim.UnitDelay, us, vs)
			})
		}
	}
}

// TestUnitDelayTracksEventGlitches samples catalog modules and compares
// total switching activity between the unit-delay approximation and the
// event-driven golden engine; the drift must stay within glitchTolerance.
func TestUnitDelayTracksEventGlitches(t *testing.T) {
	cases := []struct {
		module string
		width  int
		tol    float64
	}{
		{"ripple-adder", 16, glitchTolAdder},
		{"cla-adder", 16, glitchTolAdder},
		{"csa-multiplier", 8, glitchTolMultiplier},
		{"booth-wallace-multiplier", 8, glitchTolMultiplier},
		{"parity-tree", 16, glitchTolAdder},
	}
	for _, tc := range cases {
		nl := buildModule(t, tc.module, tc.width)
		t.Run(nl.Name, func(t *testing.T) {
			m, err := bitsim.New(nl, bitsim.UnitDelay)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			us, vs := randPairs(rng, m.NumInputBits(), 256)
			unit, _ := batchAll(t, m, us, vs)
			event, _ := scalarReference(t, nl, sim.EventDriven, us, vs)
			zero, _ := scalarReference(t, nl, sim.ZeroDelay, us, vs)
			var unitTotal, eventTotal, zeroTotal int64
			for id := range unit {
				unitTotal += unit[id]
				eventTotal += event[id]
				zeroTotal += zero[id]
			}
			if unitTotal < zeroTotal {
				t.Fatalf("unit-delay total %d below zero-delay %d", unitTotal, zeroTotal)
			}
			drift := relDiff(float64(unitTotal), float64(eventTotal))
			t.Logf("%s: toggles unit=%d event=%d zero=%d drift=%.3f",
				nl.Name, unitTotal, eventTotal, zeroTotal, drift)
			if drift > tc.tol {
				t.Fatalf("glitch drift %.3f exceeds tolerance %.2f (unit %d vs event %d)",
					drift, tc.tol, unitTotal, eventTotal)
			}
		})
	}
}

// TestCycleBatchValidation pins the panic contract on malformed batches.
func TestCycleBatchValidation(t *testing.T) {
	nl := buildModule(t, "ripple-adder", 4)
	m, err := bitsim.New(nl, bitsim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	bits := m.NumInputBits()
	ok := make([]logic.Word, 1)
	ok[0] = logic.NewWord(bits)
	q := make([]float64, 1)
	mustPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		})
	}
	mustPanic("len-mismatch", func() { m.CycleBatch(ok, nil, q) })
	mustPanic("empty", func() { m.CycleBatch(nil, nil, nil) })
	big := make([]logic.Word, bitsim.Lanes+1)
	for i := range big {
		big[i] = logic.NewWord(bits)
	}
	mustPanic("over-lanes", func() { m.CycleBatch(big, big, make([]float64, len(big))) })
	mustPanic("short-q", func() { m.CycleBatch(ok, ok, nil) })
	bad := []logic.Word{logic.NewWord(bits + 1)}
	mustPanic("width-mismatch", func() { m.CycleBatch(bad, bad, q) })
}

// TestPartialBatchMatchesSingles checks pad-lane inertness: a ragged batch
// of k < Lanes pairs must price exactly like k single-pair batches — the
// unused lanes contribute no toggles and no charge.
func TestPartialBatchMatchesSingles(t *testing.T) {
	nl := buildModule(t, "csa-multiplier", 4)
	m, err := bitsim.New(nl, bitsim.UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	us, vs := randPairs(rng, m.NumInputBits(), 5)
	qBatch := make([]float64, 8)
	for i := range qBatch {
		qBatch[i] = math.NaN() // sentinel: lanes beyond the batch stay untouched
	}
	batchToggles := append([]int64(nil), m.CycleBatch(us, vs, qBatch)...)

	single := m.Clone()
	q1 := make([]float64, 1)
	sumToggles := make([]int64, len(batchToggles))
	for j := range us {
		for id, n := range single.CycleBatch(us[j:j+1], vs[j:j+1], q1) {
			sumToggles[id] += n
		}
		// Charges are exact integer tenths, so which lanes share the
		// batch cannot move a bit.
		if qBatch[j] != q1[0] {
			t.Fatalf("pair %d: batched charge %g, single %g", j, qBatch[j], q1[0])
		}
	}
	for id := range batchToggles {
		if batchToggles[id] != sumToggles[id] {
			t.Fatalf("net %d: batched toggles %d, singles %d", id, batchToggles[id], sumToggles[id])
		}
	}
	for j := len(us); j < len(qBatch); j++ {
		if !math.IsNaN(qBatch[j]) {
			t.Fatalf("q[%d] overwritten to %g beyond the batch", j, qBatch[j])
		}
	}
}

// TestCloneConcurrent drives clones from concurrent goroutines (the worker
// pool contract); under -race this doubles as the data-race check, and the
// results must match a sequential run exactly.
func TestCloneConcurrent(t *testing.T) {
	nl := buildModule(t, "cla-adder", 8)
	base, err := bitsim.New(nl, bitsim.UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const workers = 4
	type job struct{ us, vs []logic.Word }
	jobs := make([]job, workers)
	wantQ := make([][]float64, workers)
	for w := range jobs {
		jobs[w].us, jobs[w].vs = randPairs(rng, base.NumInputBits(), bitsim.Lanes)
		wantQ[w] = make([]float64, bitsim.Lanes)
		base.CycleBatch(jobs[w].us, jobs[w].vs, wantQ[w])
	}
	var wg sync.WaitGroup
	gotQ := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := base.Clone()
			gotQ[w] = make([]float64, bitsim.Lanes)
			m.CycleBatch(jobs[w].us, jobs[w].vs, gotQ[w])
		}(w)
	}
	wg.Wait()
	for w := range gotQ {
		for j := range gotQ[w] {
			if gotQ[w][j] != wantQ[w][j] {
				t.Fatalf("worker %d pair %d: clone charge %g, base %g", w, j, gotQ[w][j], wantQ[w][j])
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if bitsim.ZeroDelay.String() != "zero-delay" || bitsim.UnitDelay.String() != "unit-delay" {
		t.Fatalf("mode names: %q, %q", bitsim.ZeroDelay, bitsim.UnitDelay)
	}
	if got := bitsim.Mode(99).String(); got == "" {
		t.Fatalf("unknown mode stringer returned empty")
	}
}

// Circuit shapes for randomCircuit, as bits of its shape argument.
const (
	// shapeChain makes every gate a Buf, Inv, Xor2 or Xnor2 whose first
	// input is the previous gate's output: a change of input 0 travels
	// the whole chain, so the netlist is as deep as it has gates and the
	// step bitsets span several words.
	shapeChain = 1 << iota
	// shapeReconverge adds a final XOR of the last gate's output with
	// input 0, which glitches once at step 1 and again when the chain
	// delivers.
	shapeReconverge
	// shapeTiesMuxes makes half the non-chain gates Mux2s and draws a
	// quarter of all gate inputs from the constant ties, so selects
	// switch and tied pins never do.
	shapeTiesMuxes
)

// randomCircuit mirrors internal/sim's fuzz helper: a random combinational
// DAG whose gate inputs are drawn from earlier nets (guaranteeing
// acyclicity), shaped by the shape bits, with the last few gate outputs
// marked as the output bus.
func randomCircuit(rng *rand.Rand, inputs, gates int, shape uint8) *netlist.Netlist {
	n := netlist.New("fuzz")
	bus := n.AddInputBus("a", inputs)
	ties := []netlist.NetID{n.Const(false), n.Const(true)}
	pool := append(append([]netlist.NetID(nil), bus.Nets...), ties...)
	kinds := cells.Kinds()
	chainKinds := []cells.Kind{cells.Buf, cells.Inv, cells.Xor2, cells.Xnor2}
	var outs []netlist.NetID
	prev := bus.Nets[0]
	for g := 0; g < gates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		switch {
		case shape&shapeChain != 0:
			kind = chainKinds[rng.Intn(len(chainKinds))]
		case shape&shapeTiesMuxes != 0 && rng.Intn(2) == 0:
			kind = cells.Mux2
		}
		c := cells.Lookup(kind)
		in := make([]netlist.NetID, c.NumInputs)
		for i := range in {
			in[i] = pool[rng.Intn(len(pool))]
			if shape&shapeTiesMuxes != 0 && rng.Intn(4) == 0 {
				in[i] = ties[rng.Intn(len(ties))]
			}
		}
		if shape&shapeChain != 0 {
			in[0] = prev
		}
		prev = n.AddGate(kind, in...)
		pool = append(pool, prev)
		outs = append(outs, prev)
	}
	if shape&shapeReconverge != 0 {
		outs = append(outs, n.AddGate(cells.Xor2, prev, bus.Nets[0]))
	}
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

// FuzzEnginesAgree mirrors internal/sim's engine-agreement fuzz target for
// the bit-parallel engine: on random DAGs and random batches (a full and
// a partial one), ZeroDelay lanes must match the scalar simulator
// net-for-net, and both modes must equal the per-lane full-sweep
// reference toggle for toggle and charge for charge. The seeds cover
// constant ties, switching Mux2 selects, and chains deeper than 64 and
// 128 levels, the last with glitches arriving after step 128.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(40), uint8(0))
	f.Add(int64(99), uint8(2), uint8(5), uint8(0))
	f.Add(int64(-7), uint8(12), uint8(120), uint8(0))
	f.Add(int64(5), uint8(4), uint8(40), uint8(shapeTiesMuxes))
	f.Add(int64(13), uint8(7), uint8(90), uint8(shapeTiesMuxes|shapeReconverge))
	f.Add(int64(6), uint8(3), uint8(90), uint8(shapeChain))
	f.Add(int64(7), uint8(3), uint8(150), uint8(shapeChain|shapeReconverge))
	f.Add(int64(8), uint8(5), uint8(199), uint8(shapeChain|shapeReconverge))
	f.Add(int64(9), uint8(5), uint8(130), uint8(shapeChain|shapeTiesMuxes|shapeReconverge))
	f.Fuzz(func(t *testing.T, seed int64, inputs, gates, shape uint8) {
		ni := 1 + int(inputs)%16
		ng := 1 + int(gates)
		build := func() *netlist.Netlist {
			return randomCircuit(rand.New(rand.NewSource(seed)), ni, ng, shape)
		}
		nlA, nlB := build(), build()
		if err := nlA.Finalize(); err != nil {
			t.Fatal(err)
		}
		if err := nlB.Finalize(); err != nil {
			t.Fatal(err)
		}
		zd, err := bitsim.New(nlA, bitsim.ZeroDelay)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5f3759df))
		us, vs := randPairs(rng, zd.NumInputBits(), bitsim.Lanes+32)
		zero, zeroQ := batchAll(t, zd, us, vs)
		want, wantQ := scalarReference(t, nlB, sim.ZeroDelay, us, vs)
		for id := range want {
			if zero[id] != want[id] {
				t.Fatalf("net %d: zero-delay toggles %d, scalar %d", id, zero[id], want[id])
			}
		}
		for j := range wantQ {
			if relDiff(zeroQ[j], wantQ[j]) > 1e-9 {
				t.Fatalf("pair %d: charge %g, scalar %g", j, zeroQ[j], wantQ[j])
			}
		}
		matchReference(t, nlA, bitsim.ZeroDelay, us, vs)
		matchReference(t, nlA, bitsim.UnitDelay, us, vs)
	})
}

// TestDeepChainGlitchesLate pins the multi-word step bitsets: on a
// 200-gate inverter and buffer chain whose end an XOR joins with the
// chain's input (201 levels, four bitset words), a flip of the input
// reaches the XOR at step 1 and again at step 201. The XOR output must
// glitch twice per flip, which it cannot if the wavefront stops within
// the first 128 steps, and both modes must equal the reference.
func TestDeepChainGlitchesLate(t *testing.T) {
	nl := netlist.New("chain")
	a := nl.AddInputBus("a", 1).Nets[0]
	prev := a
	for g := 0; g < 200; g++ {
		if g%3 == 0 {
			prev = nl.AddGate(cells.Buf, prev)
		} else {
			prev = nl.Not(prev)
		}
	}
	xor := nl.Xor(prev, a)
	nl.MarkOutputBus("y", []netlist.NetID{xor})
	if err := nl.Finalize(); err != nil {
		t.Fatal(err)
	}
	us, vs := randPairs(rand.New(rand.NewSource(8)), 1, bitsim.Lanes)
	m, err := bitsim.New(nl, bitsim.UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	toggles := m.CycleBatch(us, vs, make([]float64, len(us)))
	var flips int64
	for l := range us {
		if us[l].Bit(0) != vs[l].Bit(0) {
			flips++
		}
	}
	if flips == 0 || toggles[xor] != 2*flips {
		t.Fatalf("XOR toggled %d times, want 2 per input flip (%d flips)", toggles[xor], flips)
	}
	matchReference(t, nl, bitsim.ZeroDelay, us, vs)
	matchReference(t, nl, bitsim.UnitDelay, us, vs)
}

// TestWarmBatchDoesNotAllocate: once a meter has run a batch, CycleBatch
// allocates nothing, in either mode, for full and partial batches.
func TestWarmBatchDoesNotAllocate(t *testing.T) {
	nl := buildModule(t, "booth-wallace-multiplier", 8)
	for _, mode := range []bitsim.Mode{bitsim.ZeroDelay, bitsim.UnitDelay} {
		m, err := bitsim.New(nl, mode)
		if err != nil {
			t.Fatal(err)
		}
		us, vs := randPairs(rand.New(rand.NewSource(5)), m.NumInputBits(), bitsim.Lanes)
		q := make([]float64, bitsim.Lanes)
		for _, n := range []int{bitsim.Lanes, 37} {
			m.CycleBatch(us[:n], vs[:n], q)
			if a := testing.AllocsPerRun(20, func() { m.CycleBatch(us[:n], vs[:n], q) }); a != 0 {
				t.Errorf("%s, %d pairs: %v allocations per warm batch", mode, n, a)
			}
		}
	}
}

// TestBatchFaultpointArmed pins the chaos-engineering hook: the batch
// path runs under the bitsim.batch fault point, so the chaos suite can
// stretch its timing while checkpoint kill-point tests run on the
// bit-parallel backend.
func TestBatchFaultpointArmed(t *testing.T) {
	faultpoint.Disarm()
	if err := faultpoint.Arm("bitsim.batch=slow:p=1:delay=0ms"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Disarm()
	nl := buildModule(t, "ripple-adder", 4)
	m, err := bitsim.New(nl, bitsim.UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	before := faultpoint.Hits("bitsim.batch")
	us, vs := randPairs(rand.New(rand.NewSource(1)), m.NumInputBits(), 8)
	m.CycleBatch(us, vs, make([]float64, len(us)))
	if faultpoint.Hits("bitsim.batch") != before+1 {
		t.Fatal("bitsim.batch fault point did not fire in CycleBatch")
	}
}

// BenchmarkCycleBatch prices full 64-lane batches of random pairs per
// module and mode, reporting ns/pair; lane packing is part of the cost.
// The multipliers are the four specs of perfbench's char-multipliers
// workload.
func BenchmarkCycleBatch(b *testing.B) {
	for _, mod := range []struct {
		name  string
		width int
	}{
		{"ripple-adder", 16}, {"kogge-stone-adder", 16},
		{"csa-multiplier", 8}, {"csa-multiplier", 16},
		{"booth-wallace-multiplier", 8}, {"booth-wallace-multiplier", 16},
	} {
		for _, mode := range []bitsim.Mode{bitsim.ZeroDelay, bitsim.UnitDelay} {
			b.Run(fmt.Sprintf("%s-%d/%s", mod.name, mod.width, mode), func(b *testing.B) {
				m, err := bitsim.New(buildModule(b, mod.name, mod.width), mode)
				if err != nil {
					b.Fatal(err)
				}
				us, vs := randPairs(rand.New(rand.NewSource(1)), m.NumInputBits(), bitsim.Lanes)
				q := make([]float64, bitsim.Lanes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.CycleBatch(us, vs, q)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bitsim.Lanes), "ns/pair")
			})
		}
	}
}
