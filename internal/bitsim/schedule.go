package bitsim

import (
	"math/bits"

	"hdpower/internal/cells"
	"hdpower/internal/netlist"
)

// schedule.go compiles a netlist.Program once per New into what the
// batch loops read: the class each net's changes are charged to (its
// capacitance class) and, for UnitDelay, the static step schedule of the
// wavefront.
//
// A net can change at step s of the wavefront only if some path from a
// primary input reaches it through exactly s gates: inputs change at the
// edge (step 0), and a gate can produce a new output at step s only if
// one of its inputs changed at step s-1. So each net's set of possible
// change steps is its inputs' sets shifted by one, computed once in
// topological order, and step s lists every gate whose output set holds
// s. Evaluating such a gate when none of its inputs changed in this batch
// reproduces its output, so walking the static lists gives exactly the
// toggles of a wavefront that re-evaluates only dirty gates.

// schedule is a netlist.Program compiled for one Mode. It is immutable
// and shared by every clone of the meter that compiled it.
type schedule struct {
	// tenths is each class's net capacitance in tenths of a charge unit,
	// class each net's class, and class c's counter planes are
	// Meter.planes[planeOff[c]:planeOff[c+1]].
	tenths   []int64
	class    []int32
	planeOff []int32

	// UnitDelay only. Step s (from 1) evaluates the gate positions
	// slots[stepEnd[s-2]:stepEnd[s-1]], grouped into runs of one kind and
	// output class; its runs end at runs[stepRuns[s-1]]. widest is the
	// most slots of any step.
	slots    []int32
	stepEnd  []int32
	runs     []run
	stepRuns []int32
	widest   int
}

// run is a stretch of at most maxRun of one step's slots whose gates
// share a kind and an output class.
type run struct {
	kind  cells.Kind
	class int32 // the outputs' class
	end   int32 // one past the run's last slot
}

// maxRun bounds a run so that six carry-save registers can count its
// changes per lane (see Meter.applyUnitDelay).
const maxRun = 1<<6 - 1

// capClasses numbers the distinct CapTenths values in net order:
// class[id] is net id's capacitance class and tenths[k] class k's
// capacitance in tenths.
func capClasses(p *netlist.Program) (class []int32, tenths []int64) {
	class = make([]int32, len(p.CapTenths))
	ids := make(map[int64]int32)
	for id, c := range p.CapTenths {
		k, ok := ids[c]
		if !ok {
			k = int32(len(tenths))
			ids[c] = k
			tenths = append(tenths, c)
		}
		class[id] = k
	}
	return class, tenths
}

// compile builds the schedule for mode over a class map: class[id] is
// the class net id's changes are charged to, and tenths[k] the
// capacitance of every net of class k. Each class gets as many counter
// planes as it takes to count, per lane, every change one batch can
// charge to it, so the counters cannot overflow before the flush at the
// end of the batch.
func compile(p *netlist.Program, mode Mode, class []int32, tenths []int64) *schedule {
	s := &schedule{class: class, tenths: tenths}
	events := make([]int, len(s.tenths)) // most changes per lane and batch, by class
	for _, id := range p.Inputs {
		events[s.class[id]]++
	}
	if mode == UnitDelay {
		s.compileSteps(p, events)
	} else {
		for _, g := range p.Gates {
			events[s.class[g.Out]]++
		}
	}
	s.planeOff = make([]int32, len(s.tenths)+1)
	for c, n := range events {
		s.planeOff[c+1] = s.planeOff[c] + int32(bits.Len(uint(n)))
	}
	return s
}

// compileSteps computes every net's possible change steps as a bitset of
// words words, then buckets each gate under every step its output can
// change at, by (step, class, kind), keeping topological order in a
// bucket.
func (s *schedule) compileSteps(p *netlist.Program, events []int) {
	kinds := cells.Kinds()
	pins := make([]int, len(kinds))
	for _, k := range kinds {
		pins[k] = cells.Lookup(k).NumInputs
	}
	// last[id] is the last step net id can change at; -1 for nets that
	// never change (constant ties and the gates they alone feed).
	last := make([]int32, len(p.CapTenths))
	for i := range last {
		last[i] = -1
	}
	for _, id := range p.Inputs {
		last[id] = 0
	}
	depth := int32(0)
	for i := range p.Gates {
		g := &p.Gates[i]
		d := int32(-1)
		for _, in := range g.In[:pins[g.Kind]] {
			d = max(d, last[in])
		}
		if d >= 0 {
			last[g.Out] = d + 1
			depth = max(depth, d+1)
		}
	}
	words := int(depth)/64 + 1
	steps := make([]uint64, len(last)*words)
	for _, id := range p.Inputs {
		steps[int(id)*words] = 1
	}
	for i := range p.Gates {
		g := &p.Gates[i]
		out := steps[int(g.Out)*words : int(g.Out+1)*words]
		for _, in := range g.In[:pins[g.Kind]] {
			for w, x := range steps[int(in)*words : int(in+1)*words] {
				out[w] |= x
			}
		}
		for w := words - 1; w > 0; w-- {
			out[w] = out[w]<<1 | out[w-1]>>63
		}
		out[0] <<= 1
	}

	classes, nkinds := len(s.tenths), len(kinds)
	// Slots are bucketed by (step, class, kind); a bucket becomes runs.
	bucket := make([]int32, int(depth)*classes*nkinds+1) // counts, then starts
	forSlots := func(visit func(gi int32, key int)) {
		for i := range p.Gates {
			g := &p.Gates[i]
			ck := int(s.class[g.Out])*nkinds + int(g.Kind)
			for w, x := range steps[int(g.Out)*words : int(g.Out+1)*words] {
				for ; x != 0; x &= x - 1 {
					st := w*64 + bits.TrailingZeros64(x)
					visit(int32(i), (st-1)*classes*nkinds+ck)
				}
			}
		}
	}
	forSlots(func(_ int32, key int) { bucket[key+1]++ })
	for k := 1; k < len(bucket); k++ {
		events[(k-1)/nkinds%classes] += int(bucket[k])
		bucket[k] += bucket[k-1]
	}
	s.slots = make([]int32, bucket[len(bucket)-1])
	forSlots(func(gi int32, key int) {
		s.slots[bucket[key]] = gi
		bucket[key]++
	})
	// bucket[key] now ends bucket key: close the runs and the steps,
	// splitting a bucket into runs of at most maxRun slots.
	s.stepEnd = make([]int32, depth)
	s.stepRuns = make([]int32, depth)
	start := int32(0)
	for st := range s.stepEnd {
		for ck := 0; ck < classes*nkinds; ck++ {
			end := bucket[st*classes*nkinds+ck]
			for ; start < end; start = min(start+maxRun, end) {
				s.runs = append(s.runs, run{
					class: int32(ck / nkinds), kind: cells.Kind(ck % nkinds), end: min(start+maxRun, end),
				})
			}
		}
		s.stepEnd[st] = start
		s.stepRuns[st] = int32(len(s.runs))
		prev := int32(0)
		if st > 0 {
			prev = s.stepEnd[st-1]
		}
		s.widest = max(s.widest, int(start-prev))
	}
}
