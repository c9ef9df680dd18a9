package core

import (
	"sync"

	"hdpower/internal/logic"
)

// Characterization parallelism works by sharding the pattern stream, not
// by sharing one stream between workers: the run is split into fixed-size
// shards, shard i draws its patterns from an independent PairSource seeded
// by mix(seed, stream, i), and every shard carries its own partial
// accumulators. Workers claim shards in any order, but partials are merged
// strictly in shard-index order, so the merged sums, bounded deviation
// reservoirs, and any early-stop decision are byte-identical for every
// worker count — Workers only changes wall-clock time, never the model.

// shardPatterns is the fixed shard size in characterization pairs. It is
// deliberately independent of the worker count (that is what makes results
// worker-count-invariant) and small enough that modest pattern budgets
// still fan out over several workers, yet large enough that per-shard
// bookkeeping is negligible against thousands of gate evaluations per
// pattern.
const shardPatterns = 128

// shard is one deterministic slice of the characterization stream.
type shard struct {
	index    int // shard index; seeds the shard's PairSource
	offset   int // absolute pattern offset of the shard's first pair
	patterns int // number of pairs in this shard
}

// shardPlan splits a pattern budget into fixed-size shards. Smaller
// budgets are prefixes of larger ones (in shards, with an identically
// seeded but truncated final shard), which the budget-convergence
// experiments rely on.
func shardPlan(patterns int) []shard {
	plan := make([]shard, 0, (patterns+shardPatterns-1)/shardPatterns)
	for off := 0; off < patterns; off += shardPatterns {
		n := shardPatterns
		if off+n > patterns {
			n = patterns - off
		}
		plan = append(plan, shard{index: len(plan), offset: off, patterns: n})
	}
	return plan
}

// shardSeed derives the PairSource seed of one shard from the run seed, a
// stream discriminator (basic, biased, port A/B, …), and the shard index.
// Chaining the splitmix64 finalizer per component keeps neighboring
// (seed, stream, index) triples uncorrelated and collision-free.
func shardSeed(seed int64, stream, index int) int64 {
	const golden = 0x9e3779b97f4a7c15
	x := mix64(uint64(seed) + golden*uint64(stream+1))
	return int64(mix64(x + golden*uint64(index+1)))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// runShardsOrdered executes run(worker, idx) for every shard index in
// [0, n) on up to `workers` goroutines and feeds the results to merge in
// strict shard-index order. merge returning false stops the run early:
// later shards are discarded even if already computed, so the merged
// prefix — and with it the early-stop point — is a pure function of the
// shard contents, independent of the worker count and of scheduling.
// It returns the number of shards merged.
func runShardsOrdered[T any](n, workers int, run func(worker, idx int) T, merge func(idx int, r T) bool) int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !merge(i, run(0, i)) {
				return i + 1
			}
		}
		return n
	}

	type item struct {
		idx int
		res T
	}
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	out := make(chan item, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := range jobs {
				select {
				case <-stop:
					return
				default:
				}
				select {
				case out <- item{idx: idx, res: run(w, idx)}:
				case <-stop:
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	pending := make(map[int]T)
	next := 0
	stopped := false
	for it := range out {
		if stopped {
			continue // drain in-flight results after an early stop
		}
		pending[it.idx] = it.res
		for {
			res, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			cont := merge(next, res)
			next++
			if !cont {
				stopped = true
				close(stop)
				break
			}
		}
	}
	return next
}

// shardWorker is one worker's backend plus the scratch it reuses from
// shard to shard — the pair sources (restarted per shard), the pair and
// charge buffers, and the per-port class indices of port shards — so a
// steady-state shard allocates nothing. A worker serves a single run,
// so all its shards are of one kind.
type shardWorker struct {
	b        Backend
	ps, psB  *PairSource // psB: port B of CharacterizePorts
	us, vs   []logic.Word
	q        []float64
	ias, ibs []int
}

// workerPool returns per-worker engines: slot 0 runs the resolved
// backend, the rest run clones sharing its immutable topology.
func workerPool(b Backend, workers int) []*shardWorker {
	pool := make([]*shardWorker, workers)
	pool[0] = &shardWorker{b: b}
	for w := 1; w < workers; w++ {
		pool[w] = &shardWorker{b: b.Clone()}
	}
	return pool
}

// restart returns ps restarted at seed, or a new m-bit source when ps is
// nil. The words ps handed out before are overwritten.
func restart(ps *PairSource, m int, seed int64, density bool) *PairSource {
	if ps == nil {
		return newPairSource(m, seed, density)
	}
	ps.reset(seed, density)
	return ps
}

// buffers returns the worker's pair and charge buffers sized for an
// n-pair shard.
func (w *shardWorker) buffers(n int) (us, vs []logic.Word, q []float64) {
	if cap(w.q) < n {
		size := max(n, shardPatterns)
		w.us, w.vs, w.q = make([]logic.Word, size), make([]logic.Word, size), make([]float64, size)
	}
	return w.us[:n], w.vs[:n], w.q[:n]
}

// recycler hands shard partials from the merging goroutine back to the
// workers once their contents have been merged or encoded, so the pool
// of partials stops growing after the first few shards. It is safe for
// concurrent use. A partial returned to a full recycler is left to the
// garbage collector.
type recycler[T any] struct {
	free  chan T
	alloc func() T
}

// newRecycler returns a recycler that keeps up to two spare partials per
// worker (one being merged, one in flight) and allocates with alloc when
// none is free.
func newRecycler[T any](workers int, alloc func() T) *recycler[T] {
	return &recycler[T]{free: make(chan T, 2*workers+1), alloc: alloc}
}

func (r *recycler[T]) get() T {
	select {
	case v := <-r.free:
		return v
	default:
		return r.alloc()
	}
}

func (r *recycler[T]) put(v T) {
	select {
	case r.free <- v:
	default:
	}
}
