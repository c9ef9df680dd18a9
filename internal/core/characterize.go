package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"

	"hdpower/internal/faultpoint"
	"hdpower/internal/logic"
	"hdpower/internal/power"
)

// CharacterizeOptions configures a characterization run.
type CharacterizeOptions struct {
	// Patterns is the number of transition pairs to simulate.
	// Defaults to 5000 (the lower end of the paper's 5000–10000 range).
	Patterns int
	// Enhanced additionally characterizes the stable-zero refined classes
	// of the enhanced model.
	Enhanced bool
	// ZClusters clusters the stable-zero axis of the enhanced model into
	// this many buckets per Hd class; 0 keeps full resolution.
	ZClusters int
	// Seed makes the characterization stream deterministic.
	Seed int64
	// ConvergeTol, if positive, ends the run early once the largest
	// relative change of any populated basic coefficient between
	// consecutive check intervals drops below this tolerance — the
	// paper's "characterization can be finished after the coefficient
	// values have converged".
	ConvergeTol float64
	// CheckEvery is the convergence check interval in patterns
	// (default 500). Checks run on merged shard boundaries, at the first
	// boundary at or past each multiple of CheckEvery.
	CheckEvery int
	// Workers is the number of concurrent characterization workers
	// sharing the pattern budget; 0 defaults to runtime.NumCPU(), 1
	// forces the fully sequential path. The pattern stream is sharded
	// deterministically by (Seed, shard index) and per-shard partial
	// accumulators are merged in shard order, so the fitted model is
	// bit-identical for every worker count.
	Workers int
	// Backend selects the simulation engine that prices the pattern
	// pairs. The zero value (BackendAuto) and BackendEvent use the
	// caller's meter — the scalar event-driven reference, bit-identical
	// to prior releases; BackendBitParallel builds a 64-lane bit-parallel
	// engine over the same netlist (see internal/bitsim), roughly an
	// order of magnitude faster with unit-delay glitch approximation.
	// The backend changes the reference charges (and so the fitted
	// coefficients), never the determinism or resume guarantees; a
	// checkpoint records its backend and refuses to resume under another.
	Backend BackendKind
	// Hooks receives progress callbacks during the run; nil disables
	// them. Callbacks never affect the fitted model.
	Hooks *Hooks
	// Interrupt, if non-nil, is polled at every merged shard boundary;
	// the first non-nil error aborts the run and Characterize returns it.
	// Serving layers use this to cancel an in-flight characterization
	// when its request context expires or the process drains. When
	// checkpointing is configured, the merged state is snapshotted before
	// the abort, so a later Resume continues where the interrupt landed.
	Interrupt func() error
	// Checkpoint configures crash-safe snapshots of the merged state and
	// resuming from them; the zero value disables both.
	Checkpoint CheckpointOptions
}

// Hooks observes characterization progress. All fields are optional.
// Callbacks run on the merging goroutine in deterministic shard order, so
// implementations need no internal ordering, only thread-safety against
// other runs.
type Hooks struct {
	// PatternsSimulated fires after each shard is merged with the
	// shard's pattern count.
	PatternsSimulated func(n int)
	// ShardMerged fires once per merged shard.
	ShardMerged func()
	// EarlyStop fires when the convergence check ends the run before the
	// full pattern budget, with the patterns actually consumed.
	EarlyStop func(patternsUsed int)
	// PhaseStart fires when a characterization phase begins, with the
	// phase name ("basic" or "biased"), the number of shards the phase
	// will merge at most, and its pattern budget. Serving layers use it to
	// size progress bars and open trace spans.
	PhaseStart func(phase string, shards, patterns int)
	// PhaseEnd fires exactly once per started phase, even when the phase
	// is cut short by convergence or an Interrupt, so span-style observers
	// can rely on balanced start/end pairs.
	PhaseEnd func(phase string)
	// Convergence fires at every convergence checkpoint with the merged
	// pattern count and the worst relative coefficient change since the
	// previous checkpoint (math.Inf(1) when a class first turned nonzero).
	// With ConvergeTol <= 0 checkpoints are still evaluated for this hook
	// — observability only, never an early stop.
	Convergence func(patterns int, worstChange float64)
	// Resumed fires once, before any phase starts, when the run restores
	// state from a checkpoint: the phase being resumed, plus the shard and
	// per-phase pattern totals already merged by earlier processes (which
	// the run's own Patterns/ShardMerged hooks will not replay).
	Resumed func(phase string, shardsMerged, patternsBasic, patternsBiased int)
	// CheckpointSaved fires after every checkpoint snapshot attempt with
	// its write error (nil on success). Snapshot failures never fail the
	// run — this hook is where they become observable.
	CheckpointSaved func(err error)
}

func (h *Hooks) patterns(n int) {
	if h != nil && h.PatternsSimulated != nil {
		h.PatternsSimulated(n)
	}
}

func (h *Hooks) shardMerged() {
	if h != nil && h.ShardMerged != nil {
		h.ShardMerged()
	}
}

func (h *Hooks) earlyStop(patternsUsed int) {
	if h != nil && h.EarlyStop != nil {
		h.EarlyStop(patternsUsed)
	}
}

func (h *Hooks) phaseStart(phase string, shards, patterns int) {
	if h != nil && h.PhaseStart != nil {
		h.PhaseStart(phase, shards, patterns)
	}
}

func (h *Hooks) phaseEnd(phase string) {
	if h != nil && h.PhaseEnd != nil {
		h.PhaseEnd(phase)
	}
}

func (h *Hooks) convergence(patterns int, worst float64) {
	if h != nil && h.Convergence != nil {
		h.Convergence(patterns, worst)
	}
}

func (h *Hooks) resumed(phase string, shards, patternsBasic, patternsBiased int) {
	if h != nil && h.Resumed != nil {
		h.Resumed(phase, shards, patternsBasic, patternsBiased)
	}
}

func (h *Hooks) checkpointSaved(err error) {
	if h != nil && h.CheckpointSaved != nil {
		h.CheckpointSaved(err)
	}
}

// wantsConvergence reports whether convergence checkpoints must run even
// without an early-stop tolerance.
func (h *Hooks) wantsConvergence() bool {
	return h != nil && h.Convergence != nil
}

// JoinHooks fans every callback out to all non-nil hook sets in order, so
// independent observers (metrics, tracing, a flight recorder, progress
// tracking) compose without knowing about each other.
func JoinHooks(hs ...*Hooks) *Hooks {
	var live []*Hooks
	for _, h := range hs {
		if h != nil {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	j := &Hooks{}
	j.PatternsSimulated = func(n int) {
		for _, h := range live {
			h.patterns(n)
		}
	}
	j.ShardMerged = func() {
		for _, h := range live {
			h.shardMerged()
		}
	}
	j.EarlyStop = func(used int) {
		for _, h := range live {
			h.earlyStop(used)
		}
	}
	j.PhaseStart = func(phase string, shards, patterns int) {
		for _, h := range live {
			h.phaseStart(phase, shards, patterns)
		}
	}
	j.PhaseEnd = func(phase string) {
		for _, h := range live {
			h.phaseEnd(phase)
		}
	}
	j.Resumed = func(phase string, shards, patternsBasic, patternsBiased int) {
		for _, h := range live {
			h.resumed(phase, shards, patternsBasic, patternsBiased)
		}
	}
	j.CheckpointSaved = func(err error) {
		for _, h := range live {
			h.checkpointSaved(err)
		}
	}
	// Only forward Convergence when someone listens: its presence alone
	// makes Characterize evaluate checkpoints (see wantsConvergence).
	for _, h := range live {
		if h.Convergence != nil {
			j.Convergence = func(patterns int, worst float64) {
				for _, h := range live {
					h.convergence(patterns, worst)
				}
			}
			break
		}
	}
	return j
}

func (o *CharacterizeOptions) setDefaults() {
	if o.Patterns <= 0 {
		o.Patterns = 5000
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 500
	}
}

// workerCount resolves the Workers option against the host.
func (o *CharacterizeOptions) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// PairSource generates characterization vector pairs (u, v) stratified
// over the Hamming-distance axis: the flip count i is drawn uniformly from
// [1, m], so every class E_i receives samples even for wide inputs, where
// a plain uniform stream essentially never produces Hd 1 or Hd m.
//
// In the default (unbiased) mode the base vector is uniform random, which
// makes the per-class conditional distribution identical to that of a
// uniform pattern pair conditioned on its Hamming-distance — so the
// resulting p_i are unbiased for random evaluation streams. The biased
// mode additionally stratifies the ones-density of the base vector to
// populate the extreme stable-zero classes of the enhanced model; it is
// only used for the enhanced coefficient table.
//
// The stream is a pure function of (m, seed, mode) and is pinned
// draw-for-draw: Next builds words limb by limb and replaces rand.Intn by
// a division-free replica, but consumes exactly the rng draws of the
// original per-bit generator and produces exactly its bits.
type PairSource struct {
	m       int
	rng     *rand.Rand
	idx     []int     // scratch permutation
	div     []intnDiv // div[n] replicates rng.Intn(n) for n in [1, m]
	density bool      // stratify base-vector ones-density
	buf     []uint64  // current limb slab
	slab    []uint64  // unused tail of buf
}

// intnDiv replicates (*rand.Rand).Intn(n) for one n in [1, 2^31-1]
// without a division: Intn draws v = Int31() until v ≤ max, then returns
// v mod n, which the reciprocal computes exactly for 32-bit v (Lemire,
// Kaser and Kurz, "Faster Remainder by Direct Computation", 2019).
type intnDiv struct {
	n     uint64
	max   int32  // rejection threshold, (2^31-1) - 2^31 mod n
	recip uint64 // ceil(2^64 / n) mod 2^64
}

func newIntnDiv(n int) intnDiv {
	return intnDiv{
		n:     uint64(n),
		max:   int32((1 << 31) - 1 - (1<<31)%uint32(n)),
		recip: ^uint64(0)/uint64(n) + 1,
	}
}

// draw returns exactly what rng.Intn(n) would, from the same draws.
func (d *intnDiv) draw(rng *rand.Rand) int {
	v := int32(rng.Int63() >> 32)
	for v > d.max {
		v = int32(rng.Int63() >> 32)
	}
	r, _ := bits.Mul64(d.recip*uint64(v), d.n)
	return int(r)
}

// slabPairs is the number of pairs whose limbs one slab allocation holds.
const slabPairs = shardPatterns

// NewPairSource returns an unbiased stratified characterization pair
// source for m-bit input vectors.
func NewPairSource(m int, seed int64) *PairSource {
	return newPairSource(m, seed, false)
}

// NewBiasedPairSource returns a pair source that additionally stratifies
// the base vector's ones-density over [0.05, 0.95], covering the
// stable-zero axis of the enhanced model.
func NewBiasedPairSource(m int, seed int64) *PairSource {
	return newPairSource(m, seed, true)
}

func newPairSource(m int, seed int64, density bool) *PairSource {
	if m <= 0 {
		panic(fmt.Sprintf("core: non-positive input width %d", m))
	}
	ps := &PairSource{
		m:       m,
		rng:     rand.New(rand.NewSource(seed)),
		idx:     make([]int, m),
		div:     make([]intnDiv, m+1),
		density: density,
	}
	for i := range ps.idx {
		ps.idx[i] = i
	}
	for n := 1; n <= m; n++ {
		ps.div[n] = newIntnDiv(n)
	}
	return ps
}

// reset restarts the stream exactly as newPairSource(m, seed, density)
// would, reusing the source's rng, tables and limb slab. The words Next
// returned before the reset share that slab and are overwritten by later
// draws, so only an owner that has dropped them may reset.
func (ps *PairSource) reset(seed int64, density bool) {
	ps.rng.Seed(seed)
	for i := range ps.idx {
		ps.idx[i] = i
	}
	ps.density = density
	ps.slab = ps.buf
}

// intn returns exactly what ps.rng.Intn(n) would, for n in [1, m].
func (ps *PairSource) intn(n int) int { return ps.div[n].draw(ps.rng) }

// Next returns the next characterization pair. The two words are cut
// side by side from a limb slab the source owns; words from earlier
// calls stay valid.
func (ps *PairSource) Next() (u, v logic.Word) {
	n := logic.NumLimbs(ps.m)
	if len(ps.slab) < 2*n {
		ps.buf = make([]uint64, 2*n*slabPairs)
		ps.slab = ps.buf
	}
	ul, vl := ps.slab[:n], ps.slab[n:2*n]
	ps.slab = ps.slab[2*n:]

	density := 0.5
	if ps.density {
		density = 0.05 + 0.9*ps.rng.Float64()
	}
	// Float64 draws are non-negative, so comparing IEEE bit patterns as
	// integers orders them exactly as x < density; the borrow of the
	// subtraction is the bit, with no data-dependent branch.
	dbits := math.Float64bits(density)
	for k := range ul {
		width := min(ps.m-k*logic.WordLimbBits, logic.WordLimbBits)
		var limb uint64
		for b := 0; b < width; b++ {
			limb |= (math.Float64bits(ps.rng.Float64()) - dbits) >> 63 << uint(b)
		}
		ul[k] = limb
	}
	i := 1 + ps.intn(ps.m)
	// Partial Fisher-Yates for i distinct flip positions.
	for k := 0; k < i; k++ {
		j := k + ps.intn(ps.m-k)
		ps.idx[k], ps.idx[j] = ps.idx[j], ps.idx[k]
	}
	copy(vl, ul)
	for _, p := range ps.idx[:i] {
		vl[p/logic.WordLimbBits] ^= 1 << uint(p%logic.WordLimbBits)
	}
	return logic.FromLimbs(ps.m, ul), logic.FromLimbs(ps.m, vl)
}

// epsilonReservoir bounds the per-class deviation sample kept by AccState.
// Classes keep their first epsilonReservoir charge samples in merged
// stream order: within a class the stream is i.i.d., so the prefix is an
// unbiased deviation sample, and — unlike a randomized reservoir — it
// stays byte-identical under ordered shard merging for any worker count.
const epsilonReservoir = 512

// AccState accumulates the charge samples of one switching-event class as
// a streaming (count, sum) pair plus the bounded deviation reservoir, so
// memory per class is O(1) no matter how long the run is. The same type
// is a shard's partial in memory, in a ShardResult on the wire and in a
// Checkpoint on disk. Sums and deviation samples are float64 and survive
// the JSON round trip bit-exactly (Go encodes the shortest representation
// that parses back to the same value), which the bit-identical resume
// guarantee rests on.
type AccState struct {
	Count int64     `json:"count"`
	Sum   float64   `json:"sum"`
	Dev   []float64 `json:"dev,omitempty"` // first epsilonReservoir samples, for ε_i
}

func (a *AccState) add(q float64) {
	a.Count++
	a.Sum += q
	if len(a.Dev) < epsilonReservoir {
		a.Dev = append(a.Dev, q)
	}
}

// merge folds a later shard's partial accumulator into a. Partials must be
// merged in shard-index order to keep sums and reservoirs deterministic.
func (a *AccState) merge(b *AccState) {
	a.Count += b.Count
	a.Sum += b.Sum
	if room := epsilonReservoir - len(a.Dev); room > 0 {
		a.Dev = append(a.Dev, b.Dev[:min(room, len(b.Dev))]...)
	}
}

func (a *AccState) coef() Coef {
	if a.Count == 0 {
		return Coef{}
	}
	p := a.Sum / float64(a.Count)
	var dev float64
	if p > 0 {
		for _, q := range a.Dev {
			dev += math.Abs((q - p) / p)
		}
		dev /= float64(len(a.Dev))
	}
	return Coef{P: p, Epsilon: dev, Count: int(a.Count)}
}

// mergeRows folds a later shard's rows of partial accumulators into the
// totals, class by class.
func mergeRows(total, part [][]AccState) {
	for i, row := range part {
		mergeAccs(total[i], row)
	}
}

func mergeAccs(total, part []AccState) {
	for k := range part {
		total[k].merge(&part[k])
	}
}

// coefs fits the coefficients of a row of accumulators.
func coefs(accs []AccState) []Coef {
	out := make([]Coef, len(accs))
	for k := range accs {
		out[k] = accs[k].coef()
	}
	return out
}

func resetAccs(accs []AccState) {
	for i := range accs {
		accs[i] = AccState{Dev: accs[i].Dev[:0]}
	}
}

// convTracker runs the convergence check of Section 4.1 on merged shard
// checkpoints: the first merged shard boundary at or past each multiple of
// CheckEvery patterns.
type convTracker struct {
	tol        float64
	checkEvery int
	nextCheck  int
	prev       []float64 // per-class mean at the previous checkpoint
	prevCount  []int64   // per-class sample count at the previous checkpoint
}

func newConvTracker(m int, tol float64, checkEvery int) *convTracker {
	return &convTracker{
		tol:        tol,
		checkEvery: checkEvery,
		nextCheck:  checkEvery,
		prev:       make([]float64, m),
		prevCount:  make([]int64, m),
	}
}

// check evaluates a convergence checkpoint at the current merged state of
// `patterns` characterization pairs. checked reports whether a checkpoint
// was due (and worst is meaningful); stop reports whether the run has
// converged under the tracker's tolerance.
func (c *convTracker) check(basic []AccState, patterns int) (worst float64, checked, stop bool) {
	if patterns < c.nextCheck {
		return 0, false, false
	}
	c.nextCheck = patterns - patterns%c.checkEvery + c.checkEvery
	worst = convergenceWorst(basic, c.prev, c.prevCount)
	return worst, true, c.tol > 0 && worst < c.tol && patterns >= 2*c.checkEvery
}

// convergenceWorst returns the largest relative change of any populated
// basic coefficient against the previous checkpoint, updating prev and
// prevCount in place. A class whose running mean is zero contributes
// nothing as long as no samples contradict it: a legitimately zero-mean
// class (or one with zero samples-delta since the last checkpoint) counts
// as converged instead of pinning the worst change at +Inf forever. Only
// a class that first turns nonzero — new samples with no usable baseline —
// reports +Inf, deferring convergence to the next checkpoint.
func convergenceWorst(basic []AccState, prev []float64, prevCount []int64) float64 {
	worst := 0.0
	for k := range basic {
		n := basic[k].Count
		if n == 0 {
			continue
		}
		cur := basic[k].Sum / float64(n)
		switch {
		case prev[k] > 0:
			if change := math.Abs(cur-prev[k]) / prev[k]; change > worst {
				worst = change
			}
		case cur > 0 && n > prevCount[k]:
			worst = math.Inf(1)
		}
		prev[k] = cur
		prevCount[k] = n
	}
	return worst
}

// newShardResult allocates empty accumulators with the model's class
// geometry: basic classes unless biased, enhanced rows if enhanced. Shard
// partials and a MergeSession's totals both have this shape.
func newShardResult(model *Model, biased, enhanced bool) *ShardResult {
	m := model.InputBits
	r := &ShardResult{}
	if !biased {
		r.Basic = make([]AccState, m)
	}
	if enhanced {
		r.Enhanced = make([][]AccState, m)
		for i := 1; i <= m; i++ {
			r.Enhanced[i-1] = make([]AccState, model.NumZBuckets(i))
		}
	}
	return r
}

// shardPartials returns the partial recycler of one characterization
// phase. Partials are recycled: once merged, or cloned into a returned
// ShardResult, a partial is reset and refilled by a later shard of the
// same phase.
func shardPartials(model *Model, workers int, biased, enhanced bool) *recycler[*ShardResult] {
	return newRecycler(workers, func() *ShardResult { return newShardResult(model, biased, enhanced) })
}

// reset empties a recycled partial for shard sh, keeping the reservoirs'
// capacity.
func (r *ShardResult) reset(sh shard) {
	r.Index, r.Patterns = sh.index, sh.patterns
	resetAccs(r.Basic)
	for _, row := range r.Enhanced {
		resetAccs(row)
	}
}

// Phase names reported through Hooks.PhaseStart/PhaseEnd.
const (
	// PhaseBasic is the unbiased stratified phase that fills the basic
	// Hd classes.
	PhaseBasic = "basic"
	// PhaseBiased is the density-stratified phase that populates the
	// extreme stable-zero classes of the enhanced table.
	PhaseBiased = "biased"
)

// Stream discriminators for shardSeed.
const (
	streamBasic  = 0 // phase 1: unbiased stratified pairs
	streamBiased = 1 // phase 2: density-stratified pairs (enhanced table)
	streamPortA  = 2 // CharacterizePorts, port A
	streamPortB  = 3 // CharacterizePorts, port B
)

// runCharShard simulates one shard of the characterization stream on the
// worker's backend and returns its partial accumulators, taken from
// parts. The shard's pairs are generated up front and priced as one
// batch — the event backend walks them in the same order the pre-Backend
// code did (so its models stay bit-identical), while the bit-parallel
// backend prices 64 at a time. The model is only read (immutable bucket
// geometry), so shards may run concurrently.
func (w *shardWorker) runCharShard(parts *recycler[*ShardResult], model *Model, sh shard, seed int64, biased bool) *ShardResult {
	faultpoint.Delay("core.shard") // chaos: stragglers must not change the model
	part := parts.get()
	part.reset(sh)
	stream := streamBasic
	if biased {
		stream = streamBiased
	}
	w.ps = restart(w.ps, model.InputBits, shardSeed(seed, stream, sh.index), biased)
	us, vs, q := w.buffers(sh.patterns)
	for j := range us {
		us[j], vs[j] = w.ps.Next()
	}
	w.b.Charges(us, vs, q)
	for j := range us {
		i := logic.Hd(us[j], vs[j])
		if part.Basic != nil {
			part.Basic[i-1].add(q[j])
		}
		if part.Enhanced != nil {
			z := logic.StableZeros(us[j], vs[j])
			part.Enhanced[i-1][model.ZBucket(i, z)].add(q[j])
		}
	}
	return part
}

// verifyNetlist statically lints the meter's netlist before any pattern
// is simulated. Meter construction finalizes the netlist, but surgery
// (netlist.RewireGateInput/RedriveGateOutput) and corruption can happen
// after that, and Finalize trusts caches Verify recomputes — so every
// characterization re-checks from first principles and fails with the
// typed, net-naming *netlist.VerifyError instead of wedging an engine.
func verifyNetlist(meter *power.Meter, moduleName string) error {
	nl := meter.Simulator().Netlist()
	if nl == nil {
		return nil
	}
	if err := nl.VerifyErr(); err != nil {
		return fmt.Errorf("core: refusing to characterize %s: %w", moduleName, err)
	}
	return nil
}

// prepare is the set-up every characterization entry point shares: lint
// the netlist, check the module has inputs, resolve the backend, and
// build a pool of at most shards workers.
func prepare(meter *power.Meter, moduleName string, opt *CharacterizeOptions, shards int) ([]*shardWorker, error) {
	if err := verifyNetlist(meter, moduleName); err != nil {
		return nil, err
	}
	if meter.NumInputBits() <= 0 {
		return nil, fmt.Errorf("core: module %s has no inputs", moduleName)
	}
	backend, err := opt.resolveBackend(meter)
	if err != nil {
		return nil, err
	}
	return workerPool(backend, min(opt.workerCount(), shards)), nil
}

// Characterize runs the characterization process of Section 4.1 against
// the reference charge meter and returns the fitted model. The meter's
// module must have at least one input bit. With Workers > 1 (or the
// runtime.NumCPU default on multi-core hosts) the pattern stream is
// characterized by a worker pool over clones of the meter; see
// CharacterizeOptions.Workers for the determinism contract.
//
// Characterize is a fleet with one in-process worker: it simulates the
// shards of each phase itself and feeds every partial, in shard order,
// through the same MergeSession state machine a fleet coordinator drives,
// so merging, the convergence check, early stop, phase hooks and the
// coefficient fit exist once. What Characterize adds is the work at each
// merged-shard boundary: polling Interrupt, the core.merge fault point,
// and the file checkpoint, which is the session's Snapshot and which a
// resumed run restores through the session's resume path.
func Characterize(meter *power.Meter, moduleName string, opt CharacterizeOptions) (*Model, error) {
	s, err := newSession(moduleName, meter.NumInputBits(), opt)
	if err != nil {
		return nil, err
	}
	pool, err := prepare(meter, moduleName, &s.opt, len(s.plan))
	if err != nil {
		return nil, err
	}
	// Crash safety: because the accumulators at a merged-shard boundary
	// are a pure function of the shard prefix, a resumed run that replays
	// the remaining shards lands on exactly the accumulators — and
	// therefore the model — of an uninterrupted run.
	resume, err := loadResume(&s.opt, moduleName, s.model, len(s.plan))
	if err != nil {
		return nil, err
	}
	// The file goes in before start: a resume at the basic phase's last
	// shard crosses into the biased phase inside start, and must take the
	// phase-boundary snapshot there.
	if co := s.opt.Checkpoint; co.Path != "" {
		s.file = &checkpointFile{path: co.Path, every: co.every()}
	}
	s.start(resume)

	// Phase 1 fills the basic classes with unbiased stratified pairs (and,
	// for the enhanced table, its unbiased share of the E_{i,z} classes);
	// phase 2 populates the extreme stable-zero classes uniform vectors
	// almost never produce with density-stratified pairs, over the shards
	// phase 1 consumed. The session decides where each phase ends, on the
	// merged prefix only, so the early-stop point is worker-count-
	// independent.
	plan, model, seed := s.plan, s.model, s.opt.Seed
	var interrupted error
	for !s.done && interrupted == nil {
		biased, start := s.phase == PhaseBiased, s.merged
		parts := shardPartials(model, len(pool), biased, s.opt.Enhanced)
		runShardsOrdered(s.PhaseShards()-start, len(pool),
			func(w, idx int) *ShardResult {
				return pool[w].runCharShard(parts, model, plan[start+idx], seed, biased)
			},
			func(_ int, part *ShardResult) bool {
				stop := s.fold(part)
				parts.put(part)
				if !stop {
					if interrupted = s.boundary(); interrupted != nil {
						return false
					}
					if s.merged < s.PhaseShards() {
						return true
					}
				}
				s.complete()
				return false
			})
	}
	if interrupted != nil {
		s.Close()
		return nil, fmt.Errorf("core: characterization of %s interrupted: %w", moduleName, interrupted)
	}
	// The run is complete; a leftover checkpoint would make the next run
	// of this spec resume into an already-finished state.
	if s.file != nil {
		_ = os.Remove(s.file.path)
	}
	return s.Finish()
}

// boundary does a local run's work at a merged-shard boundary while the
// phase is still open: poll Interrupt and the core.merge fault point, and
// snapshot — before an abort, so a resume continues where it landed, and
// otherwise at the periodic interval.
func (s *MergeSession) boundary() error {
	var err error
	if s.opt.Interrupt != nil {
		err = s.opt.Interrupt()
	}
	if err == nil {
		err = faultpoint.Hit("core.merge")
	}
	if err != nil {
		s.save()
		return err
	}
	s.tick()
	return nil
}
