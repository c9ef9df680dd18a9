package main

// char.go runs the characterization workloads: rounds of whole builds,
// each the way serve's characterize runs one, checked bit for bit against
// a Workers: 1 reference, and the traced ledger that replays each build
// layer by layer through the public API.

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"hdpower"
	"hdpower/internal/bitsim"
	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
	"hdpower/internal/obs"
	"hdpower/internal/power"
	"hdpower/internal/sim"
)

// buildMeter is the first half of a build as serve's characterize runs
// it: catalog generator, Finalize, event-driven meter.
func buildMeter(s spec) (*power.Meter, error) {
	mod, err := dwlib.Lookup(s.module)
	if err != nil {
		return nil, err
	}
	nl := mod.Build(s.width)
	if err := nl.Finalize(); err != nil {
		return nil, err
	}
	return power.NewMeter(nl, sim.EventDriven)
}

// options are serve's characterization options for s with the
// bit-parallel backend hdserve defaults to.
func (s spec) options(workers int) core.CharacterizeOptions {
	return core.CharacterizeOptions{
		Patterns: buildPatterns,
		Seed:     s.seed,
		Enhanced: s.enhanced,
		Workers:  workers,
		Backend:  core.BackendBitParallel,
	}
}

// build runs one whole build of s and returns the model and the number of
// pairs priced in both phases.
func build(s spec, workers int) (*core.Model, int, error) {
	meter, err := buildMeter(s)
	if err != nil {
		return nil, 0, err
	}
	pairs := 0
	opt := s.options(workers)
	opt.Hooks = &core.Hooks{PatternsSimulated: func(n int) { pairs += n }}
	m, err := core.Characterize(meter, s.name(), opt)
	return m, pairs, err
}

// references builds every spec once; every later build of a spec, at any
// worker count, must match its reference bit for bit.
func (r *run) references(workers int) ([]*core.Model, error) {
	refs := make([]*core.Model, len(r.specs))
	for i, s := range r.specs {
		m, _, err := build(s, workers)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", s.name(), err)
		}
		refs[i] = m
	}
	return refs, nil
}

// round builds every spec once at Workers: nproc. It returns the CPU time
// the round took, the pairs priced and how many builds failed: an error
// (Characterize returns Model.Validate's) or a model that is not
// bit-identical to the reference.
func (r *run) round(refs []*core.Model) (cpu time.Duration, pairs, failed int) {
	c0 := cpuTime()
	defer func() { cpu = cpuTime() - c0 }()
	for i, s := range r.specs {
		m, n, err := build(s, r.workers)
		pairs += n
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: build %s: %v\n", s.name(), err)
		case !reflect.DeepEqual(m, refs[i]):
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: build %s differs from its Workers: 1 reference\n", s.name())
		}
	}
	return cpu, pairs, failed
}

// charTimed runs a char-* workload untraced. Set-up builds the Workers: 1
// references and one warm-up round; the timed phase repeats rounds until
// the run's seconds are spent.
func (r *run) charTimed() (result, error) {
	var res result
	var refs []*core.Model
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		k := r.setupYard.measure()
		c0 := cpuTime()
		var err error
		if refs, err = r.references(1); err != nil {
			return res, err
		}
		if _, _, failed := r.round(refs); failed > 0 {
			return res, fmt.Errorf("%d warm-up builds failed", failed)
		}
		cpu := cpuTime() - c0
		setups = append(setups, cpu.Seconds()*r.setupYard.scale(k, r.setupYard.measure()))
	}

	heap := startHeapPeak()
	var rates, raws []float64
	start := time.Now()
	for k := r.yard.measure(); len(rates) == 0 || time.Since(start) < r.seconds; {
		cpu, pairs, failed := r.round(refs)
		next := r.yard.measure()
		res.Attempted += int64(len(r.specs))
		res.Failed += int64(failed)
		rates = append(rates, float64(pairs)/(cpu.Seconds()*r.yard.scale(k, next)))
		raws = append(raws, float64(pairs)/cpu.Seconds())
		k = next
	}
	heapMiB := heap.mib()

	errPct, err := r.accuracy(refs)
	if err != nil {
		return res, err
	}
	res.set("setup_s", median(setups), "s")
	res.set("items_per_cpu_s", median(rates), "1/cpu-s")
	res.set("err_pct", errPct, "%")
	res.set("heap_peak_mb", heapMiB, "MiB")
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds of %d builds, %.0f pairs per scaled CPU second, %.0f per raw CPU second (medians of rounds), err %.2f%%\n",
		r.name, len(rates), len(r.specs), median(rates), median(raws), errPct)
	return res, nil
}

// heldOut returns spec i's held-out type-I stream: heldOutCycles cycles of
// independent uniform operands on every port.
func (r *run) heldOut(i, inputBits int) []logic.Word {
	s := r.specs[i]
	src := hdpower.OperandStream(hdpower.TypeRandom, s.width, inputBits/s.width, r.streams[i])
	return hdpower.TakeWords(src, heldOutCycles+1)
}

// accuracy returns the mean |ε| of the models on their held-out streams,
// priced by the event-driven reference through hdpower.Estimate.
func (r *run) accuracy(models []*core.Model) (float64, error) {
	var sum float64
	for i, s := range r.specs {
		nl, err := hdpower.Build(s.module, s.width)
		if err != nil {
			return 0, err
		}
		rep, err := hdpower.Estimate(models[i], nl, r.heldOut(i, models[i].InputBits))
		if err != nil {
			return 0, fmt.Errorf("accuracy of %s: %w", s.name(), err)
		}
		sum += math.Abs(rep.AvgErr)
	}
	return sum / float64(len(r.specs)), nil
}

const (
	// buildReps is how often the ledger times the netlist build of a spec.
	buildReps = 3
	// ledgerReps is how often the ledger builds each spec at Workers: 1,
	// at nproc, and through its shard replay.
	ledgerReps = 3
)

// charLedger is the per-layer account of characterizing a spec set,
// replayed through the public API at Workers: 1.
type charLedger struct {
	build, verify, compile, pairgen, charges, classify time.Duration
	csr, merge, fit                                    time.Duration
	builds, verifies, compiles, merges, fits           int
	pairs, batches                                     int
	// char1 and charN time core.Characterize at Workers: 1 and nproc.
	char1, charN time.Duration
	event        time.Duration
	eventCycles  int

	attempted, failed int64
}

// sink keeps re-timed results alive so the compiler cannot drop the calls.
var sink int

// charSpans is how many spans charLedger records for specs.
func charSpans(specs []spec) int {
	shards := core.NumShards(buildPatterns)
	n := 0
	for _, s := range specs {
		phases := 1
		if s.enhanced {
			phases = 2
		}
		// root, builds and Meter.Run; per repetition two Characterize calls
		// and Finish, and per phase CharacterizeShardRange, verify, compile
		// and per shard Merge, pair generation, Charges and classification.
		n += 1 + buildReps + 1 + ledgerReps*(3+phases*(3+4*shards))
	}
	return n
}

// charLedger replays every spec layer by layer and returns the ledger
// with the Workers: 1 models. Each replayed model, and each model built
// at Workers: 1 and nproc on the way, is checked against refs, or against
// the Workers: 1 model when refs is nil.
func (r *run) charLedger(tr *obs.Tracer, refs []*core.Model) (*charLedger, []*core.Model, error) {
	l := &charLedger{}
	models := make([]*core.Model, len(r.specs))
	for i, s := range r.specs {
		var ref *core.Model
		if refs != nil {
			ref = refs[i]
		}
		ctx, root := tr.Start(context.Background(), "char.build")
		root.SetAttr("model", s.name())
		m, err := l.replay(ctx, tr, r, i, ref)
		root.End()
		if err != nil {
			return nil, nil, fmt.Errorf("ledger of %s: %w", s.name(), err)
		}
		models[i] = m
	}
	return l, models, nil
}

func (l *charLedger) check(got, want *core.Model, s spec, what string) {
	l.attempted++
	if !reflect.DeepEqual(got, want) {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s (%s) differs from the reference model\n", s.name(), what)
	}
}

// replay runs spec i through every layer: netlist build, then
// ledgerReps times core.Characterize at Workers: 1, its shard replay and
// core.Characterize at nproc, and last the event-driven meter on the
// held-out stream.
func (l *charLedger) replay(ctx context.Context, tr *obs.Tracer, r *run, i int, ref *core.Model) (*core.Model, error) {
	s := r.specs[i]
	var meter *power.Meter
	for k := 0; k < buildReps; k++ {
		t0 := time.Now()
		var err error
		if meter, err = buildMeter(s); err != nil {
			return nil, err
		}
		l.build += span(ctx, tr, "netlist.build", t0)
		l.builds++
	}
	// Characterize and its replay alternate, so drift of the machine
	// during the ledger lands on both sides of core.reconcile.
	for rep := 0; rep < ledgerReps; rep++ {
		t0 := time.Now()
		m1, err := core.Characterize(meter, s.name(), s.options(1))
		l.char1 += span(ctx, tr, "core.Characterize/workers=1", t0)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = m1
		}
		l.check(m1, ref, s, "Workers: 1")
		model, err := l.shards(ctx, tr, meter, s)
		if err != nil {
			return nil, err
		}
		l.check(model, ref, s, "replay")
		t0 = time.Now()
		mN, err := core.Characterize(meter, s.name(), s.options(r.workers))
		l.charN += span(ctx, tr, "core.Characterize/workers=nproc", t0)
		if err != nil {
			return nil, err
		}
		l.check(mN, ref, s, "Workers: nproc")
	}

	nl := meter.Simulator().Netlist()
	em, err := power.NewMeter(nl, sim.EventDriven)
	if err != nil {
		return nil, err
	}
	words := r.heldOut(i, meter.NumInputBits())
	t0 := time.Now()
	_, err = em.Run(words)
	l.event += span(ctx, tr, "power.Meter.Run", t0)
	l.eventCycles += len(words) - 1
	return ref, err
}

// shards replays one build at Workers: 1 through the fleet half of core:
// one CharacterizeShardRange per phase, one Merge per shard, then Finish,
// re-timing after each range the layers it ran inside.
func (l *charLedger) shards(ctx context.Context, tr *obs.Tracer, meter *power.Meter, s spec) (*core.Model, error) {
	opt := s.options(1)
	sess, err := core.NewMergeSession(s.name(), meter.NumInputBits(), opt)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	for !sess.Done() {
		phase, n := sess.Phase(), sess.PhaseShards()
		t0 := time.Now()
		results, err := core.CharacterizeShardRange(meter, s.name(), opt, phase, 0, n)
		l.csr += span(ctx, tr, "core.CharacterizeShardRange", t0)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			t0 = time.Now()
			err := sess.Merge(res)
			l.merge += span(ctx, tr, "core.MergeSession.Merge", t0)
			l.merges++
			if err != nil {
				return nil, err
			}
		}
		nl := meter.Simulator().Netlist()
		if err := l.retime(ctx, tr, nl, s, phase == core.PhaseBiased, results); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	model, err := sess.Finish()
	l.fit += span(ctx, tr, "core.MergeSession.Finish", t0)
	l.fits++
	return model, err
}

// retime re-times the layers one CharacterizeShardRange call runs inside:
// the netlist verify and the bitsim compile it repeats per call, then pair
// generation, Charges and classification shard by shard on the same shard
// sizes, interleaved as core interleaves them.
func (l *charLedger) retime(ctx context.Context, tr *obs.Tracer, nl *netlist.Netlist, s spec, biased bool, results []core.ShardResult) error {
	t0 := time.Now()
	err := nl.VerifyErr()
	l.verify += span(ctx, tr, "netlist.VerifyErr", t0)
	l.verifies++
	if err != nil {
		return err
	}
	t0 = time.Now()
	backend, err := core.NewBitParallelBackend(nl)
	l.compile += span(ctx, tr, "core.NewBitParallelBackend", t0)
	l.compiles++
	if err != nil {
		return err
	}
	m := backend.NumInputBits()
	for k, res := range results {
		n := res.Patterns
		t0 = time.Now()
		var ps *core.PairSource
		if biased {
			ps = core.NewBiasedPairSource(m, s.seed+int64(k))
		} else {
			ps = core.NewPairSource(m, s.seed+int64(k))
		}
		us, vs, q := make([]logic.Word, n), make([]logic.Word, n), make([]float64, n)
		for j := range us {
			us[j], vs[j] = ps.Next()
		}
		l.pairgen += span(ctx, tr, "core.PairSource.Next", t0)

		t0 = time.Now()
		backend.Charges(us, vs, q)
		l.charges += span(ctx, tr, "core.Backend.Charges", t0)
		l.batches += (n + bitsim.Lanes - 1) / bitsim.Lanes

		t0 = time.Now()
		for j := range us {
			sink += logic.Hd(us[j], vs[j])
			if s.enhanced {
				sink += logic.StableZeros(us[j], vs[j])
			}
		}
		l.classify += span(ctx, tr, "logic.classify", t0)
		l.pairs += n
	}
	return nil
}

// replayTime is the traced replay's wall time: every CharacterizeShardRange,
// Merge and Finish span.
func (l *charLedger) replayTime() time.Duration { return l.csr + l.merge + l.fit }

// overheadPct compares the traced replay with untraced core.Characterize
// at the same worker count.
func (l *charLedger) overheadPct() float64 {
	return (float64(l.replayTime())/float64(l.char1) - 1) * 100
}

func (l *charLedger) report(res *result, workload string) {
	perPair := func(d time.Duration) float64 { return float64(d) / float64(l.pairs) }
	perCall := func(d time.Duration, n int) float64 { return us(d) / float64(n) }
	// Accumulation has no public entry point: it is what remains of the
	// CharacterizeShardRange spans once every re-timed layer inside them
	// is taken out.
	accumulate := l.csr - l.verify - l.compile - l.pairgen - l.charges - l.classify
	reconcile := float64(l.replayTime()) / float64(l.char1)
	res.set("netlist.build_us", perCall(l.build, l.builds), "us/model")
	res.set("netlist.verify_us", perCall(l.verify, l.verifies), "us/model")
	res.set("bitsim.compile_us", perCall(l.compile, l.compiles), "us/model")
	res.set("core.pairgen_ns", perPair(l.pairgen), "ns/pair")
	res.set("bitsim.charges_ns", perPair(l.charges), "ns/pair")
	res.set("bitsim.lane_fill", float64(l.pairs)/float64(bitsim.Lanes*l.batches), "ratio")
	res.set("logic.classify_ns", perPair(l.classify), "ns/pair")
	res.set("core.accumulate_ns", perPair(accumulate), "ns/pair")
	res.set("core.merge_us", perCall(l.merge, l.merges), "us/shard")
	res.set("core.fit_us", perCall(l.fit, l.fits), "us/model")
	res.set("core.workers_speedup", float64(l.char1)/float64(l.charN), "ratio")
	res.set("core.reconcile", reconcile, "ratio")
	res.set("sim.event_ns", float64(l.event)/float64(l.eventCycles), "ns/cycle")

	total := float64(l.replayTime())
	share := func(d time.Duration) float64 { return 100 * float64(d) / total }
	fmt.Fprintf(os.Stderr, "perfbench: %s: characterization shares of Workers: 1 build time: "+
		"verify %.1f%%, compile %.1f%%, pairgen %.1f%%, bitsim.charges %.1f%%, classify %.1f%%, "+
		"accumulate %.1f%%, merge %.1f%%, fit %.1f%%\n", workload,
		share(l.verify), share(l.compile), share(l.pairgen), share(l.charges), share(l.classify),
		share(accumulate), share(l.merge), share(l.fit))
	if reconcile < 0.85 || reconcile > 1.15 {
		fmt.Fprintf(os.Stderr, "perfbench: ledger gap: %s: core.reconcile %.3f, want 0.85-1.15\n", workload, reconcile)
	}
	if accumulate < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: ledger gap: %s: the re-timed layers exceed the CharacterizeShardRange spans by %.0fns/pair\n",
			workload, -perPair(accumulate))
	}
}
