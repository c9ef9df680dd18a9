// Command hdload is a deterministic closed-loop load generator for
// hdserve's estimate data plane. It builds the requested models, warms
// the server, then drives the unary (/v1/estimate) and streaming
// (/v1/estimate/stream) endpoints with a fixed-seed request mix, and
// emits benchjson-compatible records so serving performance lands in the
// same baseline/gate machinery (cmd/benchcmp) as characterization:
//
//	hdload -url http://127.0.0.1:8080 -models csa-multiplier:8 \
//	    -concurrency 4 -duration 5s -o BENCH_serve.json
//
// Per scenario the record carries p50-ns / p99-ns (client round-trip
// latency), qps (estimates priced per second), and allocs/op — the
// server-side heap allocations per estimate, measured by scraping
// hdserve_go_mallocs_total from /metrics before and after the measure
// phase. A request mix is reproducible across runs: the generator is
// seeded (-gen-seed), request bodies are pre-generated, and workers walk
// the pool at fixed offsets. Wall-clock only times phases and latencies;
// it never influences which requests are sent.
//
// With -telemetry-check the run also audits the server's own telemetry
// plane: /v1/telemetry is scraped before and after the measure phase and
// the server-observed request delta must agree with the client-side count
// within 1% per plane, then /v1/telemetry snapshot latency is benchmarked
// as a ServeTelemetry/snapshot record so the observability plane itself
// rides the same benchcmp budgets as the estimate planes.
//
// Transient connection errors — dial refused while the server restarts,
// a reset or broken pipe mid-flight — are retried with capped jittered
// backoff before any failure is declared, so a briefly unavailable server
// does not flunk a gate run.
//
// Exit status: 0 on success, 1 when any request failed (a gate run must
// not average errors away) or a telemetry cross-check disagreed, 2 on
// usage or setup failure.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/fleet"
)

// record mirrors cmd/benchjson's output schema so BENCH_serve.json flows
// through the same benchcmp gates as BENCH_characterize.json.
type record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NumCPU     int                `json:"num_cpu"`
	Backend    string             `json:"backend,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// target is one built model the generated requests price against.
type target struct {
	module    string
	width     int
	seed      int64
	inputBits int
}

type config struct {
	url          string
	models       []target
	seed         int64
	patterns     int
	enhanced     bool
	genSeed      int64
	qps          float64
	concurrency  int
	duration     time.Duration
	warmup       time.Duration
	mix          string
	cycles       int
	endpoint     string
	streamBatch  int
	readyTimeout time.Duration
	out          string
	telemetry    bool
}

func main() {
	var cfg config
	var modelsFlag string
	flag.StringVar(&cfg.url, "url", "http://127.0.0.1:8080", "hdserve base URL")
	flag.StringVar(&modelsFlag, "models", "csa-multiplier:8", "comma-separated module:width specs to build and load against")
	flag.Int64Var(&cfg.seed, "seed", 1, "model build seed")
	flag.IntVar(&cfg.patterns, "patterns", 2000, "characterization budget per model build")
	flag.BoolVar(&cfg.enhanced, "enhanced", false, "build the stable-zero enhanced tables too")
	flag.Int64Var(&cfg.genSeed, "gen-seed", 1, "request-generator seed (same seed => same request sequence)")
	flag.Float64Var(&cfg.qps, "qps", 0, "target aggregate request rate (0 = unthrottled closed loop)")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "concurrent closed-loop workers")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "measured load phase length")
	flag.DurationVar(&cfg.warmup, "warmup", 1*time.Second, "unmeasured warmup phase length")
	flag.StringVar(&cfg.mix, "mix", "mixed", "request mix: hd, words, enhanced, or mixed")
	flag.IntVar(&cfg.cycles, "cycles", 16, "cycles priced per estimate request")
	flag.StringVar(&cfg.endpoint, "endpoint", "both", "data plane to load: unary, stream, or both")
	flag.IntVar(&cfg.streamBatch, "stream-batch", 64, "estimate lines per streaming batch request")
	flag.DurationVar(&cfg.readyTimeout, "ready-timeout", 30*time.Second, "how long to poll /readyz before giving up")
	flag.StringVar(&cfg.out, "o", "", "write the benchmark JSON here (atomic for a regular file); stdout when empty")
	flag.BoolVar(&cfg.telemetry, "telemetry-check", false, "cross-check client request counts against the server's /v1/telemetry planes (>1% disagreement fails the run) and benchmark snapshot latency as ServeTelemetry/snapshot")
	flag.Parse()

	if err := cfg.parseModels(modelsFlag); err != nil {
		fmt.Fprintf(os.Stderr, "hdload: %v\n", err)
		os.Exit(2)
	}
	recs, errCount, checkFails, err := run(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdload: %v\n", err)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdload: encode records: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if cfg.out != "" {
		if err := atomicio.WriteOutput(cfg.out, data); err != nil {
			fmt.Fprintf(os.Stderr, "hdload: %v\n", err)
			os.Exit(2)
		}
	} else {
		os.Stdout.Write(data)
	}
	fail := false
	if errCount > 0 {
		fmt.Fprintf(os.Stderr, "hdload: FAIL: %d request(s) errored during the measure phase\n", errCount)
		fail = true
	}
	for _, f := range checkFails {
		fmt.Fprintf(os.Stderr, "hdload: FAIL: %s\n", f)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}

func (c *config) parseModels(spec string) error {
	switch c.mix {
	case "hd", "words", "enhanced", "mixed":
	default:
		return fmt.Errorf("unknown -mix %q (want hd, words, enhanced, or mixed)", c.mix)
	}
	switch c.endpoint {
	case "unary", "stream", "both":
	default:
		return fmt.Errorf("unknown -endpoint %q (want unary, stream, or both)", c.endpoint)
	}
	if c.concurrency < 1 || c.cycles < 1 || c.streamBatch < 1 {
		return fmt.Errorf("-concurrency, -cycles and -stream-batch must be >= 1")
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		mod, widthStr, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("bad -models entry %q (want module:width)", part)
		}
		width, err := strconv.Atoi(widthStr)
		if err != nil || width < 1 {
			return fmt.Errorf("bad width in -models entry %q", part)
		}
		c.models = append(c.models, target{module: mod, width: width, seed: c.seed})
	}
	if len(c.models) == 0 {
		return fmt.Errorf("-models named no models")
	}
	return nil
}

// run prepares the server (readiness, model builds, input-bits lookup)
// and executes one load scenario per selected endpoint, plus the
// telemetry audit and snapshot benchmark when -telemetry-check is set.
func run(cfg *config) (recs []record, errCount int64, checkFails []string, err error) {
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.concurrency * 2,
			MaxIdleConnsPerHost: cfg.concurrency * 2,
		},
	}
	if err := waitReady(client, cfg.url, cfg.readyTimeout); err != nil {
		return nil, 0, nil, err
	}
	for i := range cfg.models {
		if err := buildModel(client, cfg, &cfg.models[i]); err != nil {
			return nil, 0, nil, err
		}
	}

	pool := genPool(cfg)
	endpoints := []string{"unary", "stream"}
	if cfg.endpoint != "both" {
		endpoints = []string{cfg.endpoint}
	}
	for _, ep := range endpoints {
		rec, errs, checkFail, err := runScenario(client, cfg, ep, pool)
		if err != nil {
			return nil, 0, nil, err
		}
		recs = append(recs, rec)
		errCount += errs
		if checkFail != "" {
			checkFails = append(checkFails, checkFail)
		}
	}
	if cfg.telemetry {
		rec, err := telemetryBench(client, cfg)
		if err != nil {
			return nil, 0, nil, err
		}
		recs = append(recs, rec)
	}
	return recs, errCount, checkFails, nil
}

// Transient connection errors — the server restarting under us (dial
// refused) or a connection torn down mid-flight (reset, broken pipe) —
// are retried with capped jittered backoff rather than failing the run.
// HTTP status codes are never transient here: a 5xx is the server
// answering, and the caller decides what that means.
const (
	retryAttempts = 5
	retryBase     = 50 * time.Millisecond
	retryCap      = 2 * time.Second
)

func transientErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// retry calls send until it returns a response, fails with an error that
// is not transient, or has made retryAttempts attempts, waiting
// fleet.Backoff between attempts. Jitter only shifts when a retry fires;
// it never influences which requests are sent, so runs stay reproducible.
func retry(send func() (*http.Response, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := send()
		if err == nil {
			return resp, nil
		}
		if attempt >= retryAttempts-1 || !transientErr(err) {
			return nil, err
		}
		delay := fleet.Backoff(retryBase, retryCap, attempt)
		fmt.Fprintf(os.Stderr, "hdload: transient error (%v); retrying in %s\n", err, delay)
		time.Sleep(delay)
	}
}

// postRetry is client.Post with transient-error retry. The body is a
// byte slice (not a Reader) precisely so each attempt can resend it.
func postRetry(client *http.Client, url, contentType string, body []byte) (*http.Response, error) {
	return retry(func() (*http.Response, error) {
		return client.Post(url, contentType, bytes.NewReader(body))
	})
}

// getRetry is client.Get with transient-error retry.
func getRetry(client *http.Client, url string) (*http.Response, error) {
	return retry(func() (*http.Response, error) { return client.Get(url) })
}

// waitReady polls /readyz until the server answers 200.
func waitReady(client *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server at %s not ready after %s: %v", url, timeout, err)
			}
			return fmt.Errorf("server at %s not ready after %s", url, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// buildModel builds one model synchronously and resolves its input-bits
// count, which bounds the hd values the generator may emit.
func buildModel(client *http.Client, cfg *config, t *target) error {
	spec := map[string]any{
		"module": t.module, "width": t.width, "seed": t.seed,
		"patterns": cfg.patterns, "enhanced": cfg.enhanced, "wait": true,
	}
	body, _ := json.Marshal(spec)
	resp, err := postRetry(client, cfg.url+"/v1/models/build", "application/json", body)
	if err != nil {
		return fmt.Errorf("build %s:%d: %v", t.module, t.width, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("build %s:%d: status %d: %s", t.module, t.width, resp.StatusCode, data)
	}

	resp, err = getRetry(client, cfg.url+"/v1/models")
	if err != nil {
		return fmt.Errorf("list models: %v", err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Models []struct {
			Spec struct {
				Module string `json:"module"`
				Width  int    `json:"width"`
				Seed   int64  `json:"seed"`
			} `json:"spec"`
			InputBits int `json:"input_bits"`
		} `json:"models"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return fmt.Errorf("list models: %v", err)
	}
	for _, m := range list.Models {
		if m.Spec.Module == t.module && m.Spec.Width == t.width && m.Spec.Seed == t.seed {
			t.inputBits = m.InputBits
			return nil
		}
	}
	return fmt.Errorf("built model %s:%d missing from /v1/models", t.module, t.width)
}

// poolSize is how many distinct request bodies the generator prepares;
// workers cycle through them at fixed offsets, so the byte streams a run
// sends are a pure function of the flags.
const poolSize = 256

// genPool pre-renders the unary request bodies for the configured mix.
// Pre-generation keeps the load loop free of formatting work and makes
// the sequence reproducible without reseeding mid-run.
func genPool(cfg *config) [][]byte {
	rng := rand.New(rand.NewSource(cfg.genSeed))
	shapes := []string{cfg.mix}
	if cfg.mix == "mixed" {
		shapes = []string{"hd", "words", "enhanced"}
	}
	pool := make([][]byte, poolSize)
	for i := range pool {
		t := cfg.models[i%len(cfg.models)]
		pool[i] = renderRequest(rng, t, shapes[i%len(shapes)], cfg.cycles)
	}
	return pool
}

// renderRequest renders one estimate request body in the hot shape the
// server's hand-rolled parser decodes: the model key triple plus exactly
// one series field.
func renderRequest(rng *rand.Rand, t target, shape string, cycles int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"model":{"module":%q,"width":%d,"seed":%d}`, t.module, t.width, t.seed)
	switch shape {
	case "words":
		mask := ^uint64(0)
		if t.width < 64 {
			mask = (1 << uint(t.width)) - 1
		}
		b.WriteString(`,"words":[`)
		for i := 0; i <= cycles; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", rng.Uint64()&mask)
		}
		b.WriteString("]}")
	case "enhanced":
		hd := make([]int, cycles)
		for i := range hd {
			hd[i] = rng.Intn(t.inputBits + 1)
		}
		writeIntArray(&b, `,"hd":[`, hd)
		sz := make([]int, cycles)
		for i := range sz {
			sz[i] = rng.Intn(t.inputBits - hd[i] + 1)
		}
		writeIntArray(&b, `,"stable_zeros":[`, sz)
		b.WriteString("}")
	default: // "hd"
		hd := make([]int, cycles)
		for i := range hd {
			hd[i] = rng.Intn(t.inputBits + 1)
		}
		writeIntArray(&b, `,"hd":[`, hd)
		b.WriteString("}")
	}
	return b.Bytes()
}

func writeIntArray(b *bytes.Buffer, open string, vals []int) {
	b.WriteString(open)
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%d", v)
	}
	b.WriteByte(']')
}

// loadWorker is one closed-loop client: it sends the next pooled request,
// waits for the full response, records the round-trip, repeats.
type loadWorker struct {
	id       int
	client   *http.Client
	url      string
	pool     [][]byte
	batch    [][]byte // stream mode: bodies are pre-joined NDJSON batches
	interval time.Duration
	stagger  time.Duration

	samples   []time.Duration
	ops       int64 // requests completed
	estimates int64 // estimate lines priced
	errs      int64
	scan      []byte
}

// phase drives the worker until deadline; record selects whether samples
// and counters accumulate (the warmup phase discards them).
func (w *loadWorker) phase(deadline time.Time, unary bool, record bool) {
	bodies := w.pool
	if !unary {
		bodies = w.batch
	}
	i := w.id // fixed per-worker offset into the shared pool
	// Stagger worker start times across one interval so a throttled run
	// does not fire all workers in lockstep.
	next := time.Now().Add(w.stagger)
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		if w.interval > 0 {
			if now.Before(next) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(w.interval)
			if behind := time.Now(); behind.After(next) {
				next = behind // closed loop: never burst to catch up
			}
		}
		body := bodies[i%len(bodies)]
		i++
		t0 := time.Now()
		est, err := w.do(body, unary)
		lat := time.Since(t0)
		if record {
			w.samples = append(w.samples, lat)
			w.ops++
			w.estimates += est
			if err != nil {
				w.errs++
			}
		}
	}
}

// do issues one request and returns how many estimates it priced.
func (w *loadWorker) do(body []byte, unary bool) (int64, error) {
	path := "/v1/estimate/stream"
	if unary {
		path = "/v1/estimate"
	}
	resp, err := postRetry(w.client, w.url+path, "application/json", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if unary {
		io.Copy(io.Discard, resp.Body)
		return 1, nil
	}
	// Stream: count output lines; any {"error": ...} line fails the run.
	est := int64(0)
	var firstErr error
	w.scan = w.scan[:0]
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		w.scan = append(w.scan, buf[:n]...)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return est, fmt.Errorf("stream read: %v", rerr)
		}
	}
	for _, line := range bytes.Split(w.scan, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"error"`)) {
			if firstErr == nil {
				firstErr = fmt.Errorf("stream error line: %s", line)
			}
			continue
		}
		est++
	}
	return est, firstErr
}

// runScenario runs warmup + measure for one endpoint and folds the
// results into a benchjson record. With -telemetry-check it also returns
// a non-empty failure description when the server's telemetry plane
// disagrees with the client-side request count by more than 1%.
func runScenario(client *http.Client, cfg *config, ep string, pool [][]byte) (record, int64, string, error) {
	unary := ep == "unary"
	var batches [][]byte
	if !unary {
		// Pre-join pool lines into NDJSON batches, rotating the starting
		// line so batches differ while staying deterministic.
		for b := 0; b < poolSize/8; b++ {
			var buf bytes.Buffer
			for j := 0; j < cfg.streamBatch; j++ {
				buf.Write(pool[(b+j)%len(pool)])
				buf.WriteByte('\n')
			}
			batches = append(batches, buf.Bytes())
		}
	}
	interval := time.Duration(0)
	if cfg.qps > 0 {
		perWorker := cfg.qps / float64(cfg.concurrency)
		interval = time.Duration(float64(time.Second) / perWorker)
	}
	workers := make([]*loadWorker, cfg.concurrency)
	for i := range workers {
		workers[i] = &loadWorker{
			id: i, client: client, url: cfg.url,
			pool: pool, batch: batches, interval: interval,
			stagger: interval * time.Duration(i) / time.Duration(cfg.concurrency),
		}
	}
	runPhase := func(d time.Duration, rec bool) time.Duration {
		deadline := time.Now().Add(d)
		start := time.Now()
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *loadWorker) {
				defer wg.Done()
				w.phase(deadline, unary, rec)
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}

	runPhase(cfg.warmup, false)
	mallocs0, err := scrapeCounter(client, cfg.url, "hdserve_go_mallocs_total")
	if err != nil {
		return record{}, 0, "", err
	}
	// The plane counters are cumulative since server start; diffing around
	// the measure phase isolates this run's traffic from warmup and from
	// whatever hit the server before.
	var tel0 uint64
	if cfg.telemetry {
		if tel0, err = scrapePlaneRequests(client, cfg.url, ep); err != nil {
			return record{}, 0, "", err
		}
	}
	elapsed := runPhase(cfg.duration, true)
	mallocs1, err := scrapeCounter(client, cfg.url, "hdserve_go_mallocs_total")
	if err != nil {
		return record{}, 0, "", err
	}

	var samples []time.Duration
	var ops, estimates, errs int64
	for _, w := range workers {
		samples = append(samples, w.samples...)
		ops += w.ops
		estimates += w.estimates
		errs += w.errs
	}
	if ops == 0 {
		return record{}, 0, "", fmt.Errorf("%s scenario completed zero requests in %s", ep, cfg.duration)
	}
	checkFail := ""
	if cfg.telemetry {
		tel1, err := scrapePlaneRequests(client, cfg.url, ep)
		if err != nil {
			return record{}, 0, "", err
		}
		serverOps := tel1 - tel0
		diff := math.Abs(float64(serverOps)-float64(ops)) / float64(ops)
		fmt.Fprintf(os.Stderr, "hdload: telemetry-check %s: client=%d server=%d (%.2f%% apart)\n",
			ep, ops, serverOps, diff*100)
		if diff > 0.01 {
			checkFail = fmt.Sprintf(
				"telemetry-check %s: server telemetry saw %d requests, client sent %d (>1%% apart)",
				ep, serverOps, ops)
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	allocsPerOp := 0.0
	if estimates > 0 {
		allocsPerOp = (mallocs1 - mallocs0) / float64(estimates)
	}
	rec := record{
		Name:       fmt.Sprintf("ServeEstimate/%s/mix=%s/conc=%d", ep, cfg.mix, cfg.concurrency),
		Iterations: ops,
		NumCPU:     runtime.NumCPU(),
		Backend:    "serve",
		Metrics: map[string]float64{
			"p50-ns":    float64(percentile(samples, 0.50)),
			"p99-ns":    float64(percentile(samples, 0.99)),
			"qps":       float64(estimates) / elapsed.Seconds(),
			"allocs/op": allocsPerOp,
		},
	}
	if !unary {
		rec.Metrics["lines/batch"] = float64(cfg.streamBatch)
	}
	fmt.Fprintf(os.Stderr,
		"hdload: %-40s ops=%d est=%d errs=%d p50=%s p99=%s qps=%.0f allocs/op=%.3f\n",
		rec.Name, ops, estimates, errs,
		time.Duration(percentile(samples, 0.50)), time.Duration(percentile(samples, 0.99)),
		rec.Metrics["qps"], allocsPerOp)
	return rec, errs, checkFail, nil
}

// scrapePlaneRequests returns one plane's cumulative request count from
// GET /v1/telemetry.
func scrapePlaneRequests(client *http.Client, url, plane string) (uint64, error) {
	resp, err := getRetry(client, url+"/v1/telemetry")
	if err != nil {
		return 0, fmt.Errorf("scrape /v1/telemetry: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("scrape /v1/telemetry: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape /v1/telemetry: status %d: %s", resp.StatusCode, data)
	}
	var snap struct {
		Planes []struct {
			Plane    string `json:"plane"`
			Requests uint64 `json:"requests"`
		} `json:"planes"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("scrape /v1/telemetry: %v", err)
	}
	for _, p := range snap.Planes {
		if p.Plane == plane {
			return p.Requests, nil
		}
	}
	return 0, fmt.Errorf("plane %q not present on /v1/telemetry", plane)
}

// telemetryIters is how many sequential snapshot requests the telemetry
// benchmark times. The snapshot walks every plane's window ring and the
// whole profiler, so its latency scales with server state, not load;
// a few hundred samples give a stable p99 in well under a second.
const telemetryIters = 200

// telemetryBench times GET /v1/telemetry after the load scenarios, while
// the server still carries the full profiled-model state the run created,
// and reports it as a benchjson record. The record name deliberately
// avoids the "unary"/"stream" substrings the serve gate's budget matching
// keys on; the telemetry plane gets its own budget instead.
func telemetryBench(client *http.Client, cfg *config) (record, error) {
	samples := make([]time.Duration, 0, telemetryIters)
	start := time.Now()
	for i := 0; i < telemetryIters; i++ {
		t0 := time.Now()
		resp, err := getRetry(client, cfg.url+"/v1/telemetry")
		if err != nil {
			return record{}, fmt.Errorf("telemetry bench: %v", err)
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil {
			return record{}, fmt.Errorf("telemetry bench: read: %v", cerr)
		}
		if resp.StatusCode != http.StatusOK {
			return record{}, fmt.Errorf("telemetry bench: status %d", resp.StatusCode)
		}
		samples = append(samples, time.Since(t0))
	}
	elapsed := time.Since(start)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rec := record{
		Name:       "ServeTelemetry/snapshot",
		Iterations: telemetryIters,
		NumCPU:     runtime.NumCPU(),
		Backend:    "serve",
		Metrics: map[string]float64{
			"p50-ns": float64(percentile(samples, 0.50)),
			"p99-ns": float64(percentile(samples, 0.99)),
			"qps":    telemetryIters / elapsed.Seconds(),
		},
	}
	fmt.Fprintf(os.Stderr, "hdload: %-40s ops=%d p50=%s p99=%s qps=%.0f\n",
		rec.Name, telemetryIters,
		time.Duration(percentile(samples, 0.50)), time.Duration(percentile(samples, 0.99)),
		rec.Metrics["qps"])
	return rec, nil
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// scrapeCounter sums every series of one metric family on /metrics.
func scrapeCounter(client *http.Client, url, name string) (float64, error) {
	resp, err := getRetry(client, url+"/metrics")
	if err != nil {
		return 0, fmt.Errorf("scrape /metrics: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("scrape /metrics: %v", err)
	}
	total, found := 0.0, false
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // e.g. name is a prefix of a longer metric
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("scrape %s: bad value in %q", name, line)
		}
		total += v
		found = true
	}
	if !found {
		return 0, fmt.Errorf("metric %s not found on /metrics", name)
	}
	return total, nil
}
