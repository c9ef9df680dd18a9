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
		// Charges agree up to float summation order: the unit-delay
		// wavefront visits nets in an order that depends on which lanes
		// are active, so the same per-lane additions land in a different
		// sequence.
		if relDiff(qBatch[j], q1[0]) > 1e-9 {
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

// randomCircuit mirrors internal/sim's fuzz helper: a random combinational
// DAG whose gate inputs are drawn from earlier nets (guaranteeing
// acyclicity), with the last few gate outputs marked as the output bus.
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
// the bit-parallel engine: on random DAGs and random batches, ZeroDelay
// lanes must match the scalar simulator net-for-net, and UnitDelay must
// preserve steady-state parity while only ever adding activity.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(40))
	f.Add(int64(99), uint8(2), uint8(5))
	f.Add(int64(-7), uint8(12), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, inputs, gates uint8) {
		ni := 1 + int(inputs)%16
		ng := 1 + int(gates)%150
		build := func() *netlist.Netlist {
			return randomCircuit(rand.New(rand.NewSource(seed)), ni, ng)
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
		ud, err := bitsim.New(nlA, bitsim.UnitDelay)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5f3759df))
		us, vs := randPairs(rng, zd.NumInputBits(), 32)
		zero, zeroQ := batchAll(t, zd, us, vs)
		unit, _ := batchAll(t, ud, us, vs)
		want, wantQ := scalarReference(t, nlB, sim.ZeroDelay, us, vs)
		for id := range want {
			if zero[id] != want[id] {
				t.Fatalf("net %d: zero-delay toggles %d, scalar %d", id, zero[id], want[id])
			}
			if unit[id]%2 != zero[id]%2 || unit[id] < zero[id] {
				t.Fatalf("net %d: unit-delay toggles %d vs zero-delay %d", id, unit[id], zero[id])
			}
		}
		for j := range wantQ {
			if relDiff(zeroQ[j], wantQ[j]) > 1e-9 {
				t.Fatalf("pair %d: charge %g, scalar %g", j, zeroQ[j], wantQ[j])
			}
		}
	})
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
func BenchmarkCycleBatch(b *testing.B) {
	for _, mod := range []struct {
		name  string
		width int
	}{{"ripple-adder", 16}, {"kogge-stone-adder", 16}, {"csa-multiplier", 16}} {
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
