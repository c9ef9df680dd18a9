// Command perfbench is hdpower's benchmark. It runs one of three named
// workloads against the two production pipelines, checks every output,
// and prints one JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-stream --seed 1 --seconds 30 --trace 0
//
// Characterization goes netlist build and verify, core pair generation,
// bitsim pricing, logic classification, then core accumulation, merge and
// fit. Estimation goes net/http, serve (middleware, fast parser, model
// resolve, renderer), lut and telemetry, with hddist behind
// /v1/estimate/stats. With --trace 0 the result carries the end-to-end
// metrics, timed in process CPU time on one P and scaled by a fixed
// kernel (see calib.go). With --trace 1
// the workload runs again with spans recorded through obs.Tracer around the
// public calls into each layer, and the result carries the per-layer
// ledger. README.md maps every layer and metric and says why each workload
// exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median, so one slow repetition does not move it.
	setupReps = 5
	// buildPatterns is the characterization budget of every build, the
	// default of both core and serve.
	buildPatterns = 5000
	// heldOutCycles is the length of the type-I stream each model's
	// accuracy is judged on.
	heldOutCycles = 2000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// spec is one model a workload characterizes or serves.
type spec struct {
	module   string
	width    int
	enhanced bool
	seed     int64 // characterization seed, drawn from the workload seed
}

// name is the model name serve's characterize gives the same build.
func (s spec) name() string { return fmt.Sprintf("%s-w%d", s.module, s.width) }

// workload is a spec set plus what runs against it: an empty serve
// characterizes the specs in rounds, "stream" serves them. The unary mix
// runs only inside the traced runs of the char-* workloads.
type workload struct {
	specs []spec
	serve string
	// yard and setupYard weigh the calibration kernel's parts like the
	// measured layer shares (README.md) of the timed rounds and of set-up,
	// which for serving is mostly the model builds.
	yard, setupYard yardstick
}

var workloads = map[string]workload{
	"char-adders": {specs: []spec{
		{module: "ripple-adder", width: 8, enhanced: true},
		{module: "kogge-stone-adder", width: 8, enhanced: true},
		{module: "ripple-adder", width: 16, enhanced: true},
		{module: "kogge-stone-adder", width: 16, enhanced: true},
	}, yard: adderYard, setupYard: adderYard},
	"char-multipliers": {specs: []spec{
		{module: "csa-multiplier", width: 8},
		{module: "booth-wallace-multiplier", width: 8},
		{module: "csa-multiplier", width: 16},
		{module: "booth-wallace-multiplier", width: 16},
	}, yard: multiplierYard, setupYard: multiplierYard},
	"serve-stream": {specs: []spec{
		{module: "csa-multiplier", width: 8, enhanced: true},
		{module: "ripple-adder", width: 16},
	}, serve: "stream", yard: yardstick{calText: 1}, setupYard: yardstick{calGate: 0.5, calPair: 0.5}},
}

var (
	adderYard      = yardstick{calGate: 0.35, calPair: 0.65}
	multiplierYard = yardstick{calGate: 0.85, calPair: 0.15}
)

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// run is one invocation: a workload with every seed drawn from the
// workload seed.
type run struct {
	workload
	name     string
	streams  []int64 // held-out accuracy stream seed per spec
	poolSeed int64
	seconds  time.Duration
	workers  int
}

// newRun draws, in a fixed order, the characterization seed of each spec,
// the held-out stream seed of each spec, and the request-pool seed.
func newRun(name string, w workload, seed int64, seconds float64) *run {
	rng := rand.New(rand.NewSource(seed))
	r := &run{
		workload: workload{specs: append([]spec(nil), w.specs...), serve: w.serve, yard: w.yard, setupYard: w.setupYard},
		name:     name,
		streams:  make([]int64, len(w.specs)),
		seconds:  time.Duration(seconds * float64(time.Second)),
		workers:  runtime.NumCPU(),
	}
	for i := range r.specs {
		r.specs[i].seed = rng.Int63n(1 << 31)
	}
	for i := range r.streams {
		r.streams[i] = rng.Int63n(1 << 31)
	}
	r.poolSeed = rng.Int63()
	return r
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: draws the characterization seeds, the held-out streams and the request pools")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced ledger and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := newRun(*name, w, *seed, *seconds)
	if *trace == 0 {
		// The untraced run times CPU, not wall time: on one P no thread
		// spins waiting for work, so the CPU a build or a request costs is
		// the work itself (see cpuTime).
		runtime.GOMAXPROCS(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d workers=%d procs=%d\n",
		*name, *seed, *seconds, *trace, r.workers, runtime.GOMAXPROCS(0))

	var res result
	var err error
	switch {
	case *trace == 1:
		res, err = r.traced(*seed)
	case r.serve == "":
		res, err = r.charTimed()
	default:
		res, err = r.serveTimed()
	}
	if err == nil {
		err = checkFinite(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checkFinite refuses a result JSON cannot carry.
func checkFinite(res result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the user plus system CPU time this process has used, all
// threads together. Linux charges a task only for the time it ran, so a
// host that lends the vCPU to another tenant (steal) or a neighbour
// process sharing the CPU moves wall time but not this clock.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples the Go heap in use every 10ms until stopped and keeps
// the peak of each second.
type heapPeak struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	start := time.Now()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			k := int(time.Since(start) / time.Second)
			for len(h.peaks) <= k {
				h.peaks = append(h.peaks, 0)
			}
			h.peaks[k] = math.Max(h.peaks[k], float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mib stops the sampler, waits for it, and returns the median of the
// per-second peaks in MiB: when a collection lands shifts a single peak,
// not the typical one.
func (h *heapPeak) mib() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}
