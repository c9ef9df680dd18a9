package sim

import (
	"math/rand"
	"testing"

	"hdpower/internal/cells"
	"hdpower/internal/dwlib"
	"hdpower/internal/logic"
)

// hazardCensus applies n uniform pairs to an m-bit module on the event
// engine and counts its gate evaluations and, among them, the same-step
// read-after-write hazards: evaluations at t of a gate with an input that
// an earlier gate of the same step flips. Evaluated one after another in
// scheduling order, such a gate would read the new value; the two-phase
// step gives it the old one. The steps are recovered from the recorded
// value changes, which commit in scheduling order: a change of net x at t
// schedules every gate x feeds at t plus the gate's delay, once per time.
func hazardCensus(t *testing.T, name string, width, n int) (evals, hazards int) {
	t.Helper()
	mod, err := dwlib.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mod.Build(width), EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	s.recording = true
	driver := make([]int32, s.nl.NumNets())
	for i := range driver {
		driver[i] = -1
	}
	for gi, g := range s.p.Gates {
		driver[g.Out] = int32(gi)
	}
	m := s.NumInputBits()
	rng := rand.New(rand.NewSource(int64(width)))
	word := func() logic.Word {
		w := logic.NewWord(m)
		for b := 0; b < m; b++ {
			w.Set(b, rng.Intn(2) == 1)
		}
		return w
	}
	type at struct{ time, id int32 } // a gate or a net at one step
	for range n {
		s.Settle(word())
		s.record = s.record[:0]
		s.Apply(word())
		slot := map[at]int{}     // a gate's position in its step
		size := map[int32]int{}  // gates scheduled per step
		flipped := map[at]bool{} // nets that flip at a step
		for _, e := range s.record {
			flipped[at{int32(e.time), int32(e.net)}] = true
			for _, gi := range s.p.Fanout[e.net] {
				k := at{int32(e.time + s.p.Delay[gi]), gi}
				if _, ok := slot[k]; !ok {
					slot[k] = size[k.time]
					size[k.time]++
				}
			}
		}
		for k, pos := range slot {
			evals++
			g := &s.p.Gates[k.id]
			for _, in := range g.In[:cells.Lookup(g.Kind).NumInputs] {
				d := driver[in]
				if d < 0 || !flipped[at{k.time, in}] {
					continue
				}
				if dpos, ok := slot[at{k.time, d}]; ok && dpos < pos {
					hazards++
					break
				}
			}
		}
	}
	return evals, hazards
}

// TestHazardCensus pins which catalog modules have same-step
// read-after-write hazards, at widths 8 and 16 over 100 uniform pairs
// each: none on the ripple adder and subtractor, the Gray coders and the
// parity tree, whose event toggles the two-phase step therefore left
// unchanged, and some on the multipliers and the barrel shifter, whose
// glitch counts depended on the order of a step's gates before it.
func TestHazardCensus(t *testing.T) {
	for _, c := range []struct {
		name   string
		hazard bool
	}{
		{"ripple-adder", false},
		{"ripple-subtractor", false},
		{"gray-encoder", false},
		{"gray-decoder", false},
		{"parity-tree", false},
		{"csa-multiplier", true},
		{"booth-wallace-multiplier", true},
		{"dadda-multiplier", true},
		{"barrel-shifter", true},
	} {
		for _, width := range []int{8, 16} {
			evals, hazards := hazardCensus(t, c.name, width, 100)
			t.Logf("%s:%d: %d hazards in %d evaluations", c.name, width, hazards, evals)
			if evals == 0 {
				t.Errorf("%s:%d: no gate evaluations", c.name, width)
			}
			if got := hazards > 0; got != c.hazard {
				t.Errorf("%s:%d: %d same-step hazards in %d evaluations, want hazards: %v",
					c.name, width, hazards, evals, c.hazard)
			}
		}
	}
}
