package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
)

// httpGet fetches a URL and returns the response plus its body.
func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// buildReady builds one model through the API and fails the test if it
// does not settle ready.
func buildReady(t *testing.T, url string, spec map[string]any) {
	t.Helper()
	spec["wait"] = true
	resp, data := postJSON(t, url+"/v1/models/build", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, data)
	}
	if br := decode[buildResponse](t, data); br.Status != statusReady {
		t.Fatalf("build status %q: %s", br.Status, br.Error)
	}
}

// slowModelJSON renders the same model spec with an explicit patterns
// field: the hand-rolled parser only accepts the cache-key triple, so the
// extra field forces the request onto the legacy path while resolving to
// the same cached model (patterns is not part of the key).
func slowModelJSON(module string, width int, seed int64) string {
	return fmt.Sprintf(`{"module":%q,"width":%d,"seed":%d,"patterns":%d}`,
		module, width, seed, defaultPatterns)
}

func fastModelJSON(module string, width int, seed int64) string {
	return fmt.Sprintf(`{"module":%q,"width":%d,"seed":%d}`, module, width, seed)
}

// TestFastSlowEquivalenceLibrary characterizes every catalog module for
// real and pins the fast path to the legacy path byte for byte: the same
// series priced through the LUT hot shape and through the encoding/json +
// struct-walk fallback must produce identical response bodies — statuses,
// floats, field order, indentation, everything.
func TestFastSlowEquivalenceLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the whole catalog")
	}
	_, ts := newTestServer(t, Config{CharWorkers: 1, Backend: core.BackendBitParallel})

	for _, name := range dwlib.Names() {
		mod, err := dwlib.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		width := mod.MinWidth
		if width < 2 {
			width = 2
		}
		buildReady(t, ts.URL, map[string]any{
			"module": name, "width": width, "seed": 3,
			"patterns": 400, "enhanced": true, "z_clusters": 3,
		})
		// Read the model's input-bit count from the inventory endpoint.
		invResp, invData := httpGet(t, ts.URL+"/v1/models")
		if invResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: models: %d %s", name, invResp.StatusCode, invData)
		}
		m := 0
		key := fmt.Sprintf("%s/w%d/s3", name, width)
		for _, snap := range decode[modelsResponse](t, invData).Models {
			if snap.Key == key {
				m = snap.InputBits
			}
		}
		if m < 1 {
			t.Fatalf("%s: could not determine input bits", name)
		}

		series := []string{
			fmt.Sprintf(`"hd":[0,1,%d,%d]`, m/2, m),
			fmt.Sprintf(`"hd":[1,%d],"stable_zeros":[%d,0]`, m, m-1),
		}
		if m <= 64 {
			series = append(series, `"words":[0,1,3,1]`)
		}
		for _, ser := range series {
			fastBody := `{"model":` + fastModelJSON(name, width, 3) + `,` + ser + `}`
			slowBody := `{"model":` + slowModelJSON(name, width, 3) + `,` + ser + `}`
			fastResp, fastData := postRaw(t, ts.URL+"/v1/estimate", fastBody)
			slowResp, slowData := postRaw(t, ts.URL+"/v1/estimate", slowBody)
			if fastResp.StatusCode != slowResp.StatusCode {
				t.Fatalf("%s %s: status fast=%d slow=%d", name, ser,
					fastResp.StatusCode, slowResp.StatusCode)
			}
			if string(fastData) != string(slowData) {
				t.Errorf("%s %s: fast and slow responses differ:\nfast: %s\nslow: %s",
					name, ser, fastData, slowData)
			}
		}
	}
}

// nastyModel returns a model whose coefficients stress the float
// rendering: subnormal-adjacent magnitudes, exponent-form boundaries,
// repeating binary fractions.
func nastyModel(m int) *core.Model {
	vals := []float64{0.1 + 0.2, 1e-7, 9.9e20, 1.23456789e21, 5e-324,
		1.0 / 3.0, 2.5e-7, 1e21, 0.30000000000000004, 123456.789012345}
	model := &core.Model{Module: "nasty", InputBits: m, Basic: make([]core.Coef, m)}
	for i := range model.Basic {
		model.Basic[i] = core.Coef{P: vals[i%len(vals)], Count: 10}
	}
	return model
}

// nastyEnhancedModel is nastyModel with a clustered enhanced table whose
// slots cycle through the same values, some left unobserved so the
// enhanced-to-basic fallback is rendered too.
func nastyEnhancedModel(m, zClusters int) *core.Model {
	model := nastyModel(m)
	model.ZClusters = zClusters
	basic := model.Basic
	model.Enhanced = make([][]core.Coef, m)
	for i := 1; i <= m; i++ {
		row := make([]core.Coef, model.NumZBuckets(i))
		for zb := range row {
			if (i+zb)%4 != 0 {
				row[zb] = core.Coef{P: basic[(i*3+zb)%m].P, Count: 2}
			}
		}
		model.Enhanced[i-1] = row
	}
	return model
}

// TestFastSlowEquivalenceNastyFloats pins the hand-rolled float encoder
// against encoding/json on coefficients chosen to hit every formatting
// branch ('e' form thresholds, exponent padding, shortest-representation
// round trips).
func TestFastSlowEquivalenceNastyFloats(t *testing.T) {
	m := 10
	_, ts := newTestServer(t, Config{
		BuildFunc: func(context.Context, BuildSpec, *core.Hooks) (*core.Model, error) {
			return nastyModel(m), nil
		},
	})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 5, "seed": 1})

	var hds []string
	for i := 0; i <= m; i++ {
		hds = append(hds, fmt.Sprint(i))
	}
	ser := `"hd":[` + strings.Join(hds, ",") + `]`
	fastBody := `{"model":` + fastModelJSON("ripple-adder", 5, 1) + `,` + ser + `}`
	slowBody := `{"model":` + slowModelJSON("ripple-adder", 5, 1) + `,` + ser + `}`
	fastResp, fastData := postRaw(t, ts.URL+"/v1/estimate", fastBody)
	slowResp, slowData := postRaw(t, ts.URL+"/v1/estimate", slowBody)
	if fastResp.StatusCode != http.StatusOK || slowResp.StatusCode != http.StatusOK {
		t.Fatalf("status fast=%d slow=%d: %s %s",
			fastResp.StatusCode, slowResp.StatusCode, fastData, slowData)
	}
	if string(fastData) != string(slowData) {
		t.Errorf("nasty-float responses differ:\nfast: %s\nslow: %s", fastData, slowData)
	}
}

// TestFastPathActuallyServes pins the dispatch itself: a hot-shape request
// must be answered by the LUT path, and the deliberately de-optimized
// variant by the legacy path, visible in hdserve_estimate_served_total.
func TestFastPathActuallyServes(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	resp, data := postRaw(t, ts.URL+"/v1/estimate",
		`{"model":`+fastModelJSON("ripple-adder", 2, 7)+`,"hd":[0,1,2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast estimate: %d %s", resp.StatusCode, data)
	}
	if got := s.met.servedLUT.Value(); got != 1 {
		t.Fatalf("servedLUT = %d, want 1", got)
	}
	resp, data = postRaw(t, ts.URL+"/v1/estimate",
		`{"model":`+slowModelJSON("ripple-adder", 2, 7)+`,"hd":[0,1,2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow estimate: %d %s", resp.StatusCode, data)
	}
	if got := s.met.servedLegacy.Value(); got != 1 {
		t.Fatalf("servedLegacy = %d, want 1", got)
	}
	if got := s.met.lutSwaps.Value(); got < 1 {
		t.Fatalf("lutSwaps = %d, want >= 1 (build must publish a snapshot)", got)
	}
}

// TestEstimateFastAllocs proves the tentpole claim: a steady-state
// estimate — parse, table lookup, evaluation, render — performs zero heap
// allocations, in both the unary (indented) and stream (compact) shapes
// and in every request mode.
func TestEstimateFastAllocs(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	bodies := map[string]string{
		"hd":       `{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0,1,2,3,4]}`,
		"enhanced": `{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[1,2],"stable_zeros":[3,1]}`,
		"words":    `{"model":{"module":"ripple-adder","width":2,"seed":7},"words":[0,15,3,9,12]}`,
	}
	for mode, body := range bodies {
		for _, indent := range []bool{true, false} {
			sc := getScratch()
			raw := []byte(body)
			allocs := testing.AllocsPerRun(300, func() {
				if _, ok := s.estimateFastBytes(raw, sc, indent); !ok {
					t.Fatalf("%s: fast path refused hot-shape request", mode)
				}
			})
			putScratch(sc)
			if allocs != 0 {
				t.Errorf("%s (indent=%v): %v allocs/op on the steady path, want 0",
					mode, indent, allocs)
			}
		}
	}
}

// TestEstimateFastFallbacks enumerates the shapes the fast parser must
// refuse (escapes, floats, unknown fields, trailing data, spec fields
// beyond the key triple) and checks each still gets the correct legacy
// answer end to end.
func TestEstimateFastFallbacks(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	model := fastModelJSON("ripple-adder", 2, 7)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"float hd", `{"model":` + model + `,"hd":[1.5]}`, http.StatusBadRequest},
		{"unknown field", `{"model":` + model + `,"hd":[1],"bogus":1}`, http.StatusBadRequest},
		{"escaped module", `{"model":{"module":"ripple\u002dadder","width":2,"seed":7},"hd":[1]}`, http.StatusOK},
		{"spec patterns", `{"model":` + slowModelJSON("ripple-adder", 2, 7) + `,"hd":[1]}`, http.StatusOK},
		{"trailing data", `{"model":` + model + `,"hd":[1]}{}`, http.StatusOK},
		{"unknown module", `{"model":{"module":"nonesuch","width":2,"seed":7},"hd":[1]}`, http.StatusBadRequest},
		{"hd out of range", `{"model":` + model + `,"hd":[99]}`, http.StatusBadRequest},
		{"both modes", `{"model":` + model + `,"hd":[1],"words":[0,1]}`, http.StatusBadRequest},
		{"no series", `{"model":` + model + `}`, http.StatusBadRequest},
		// encoding/json keeps the last of a repeated key (an array is
		// replaced, not extended); the fast parser leaves both to it.
		{"repeated hd", `{"model":` + model + `,"hd":[1],"hd":[2]}`, http.StatusOK},
		{"repeated words", `{"model":` + model + `,"words":[0,1],"words":[2,3]}`, http.StatusOK},
		{"repeated model", `{"model":` + model + `,"model":` + model + `,"hd":[1]}`, http.StatusOK},
		{"repeated module", `{"model":{"module":"ripple-adder","module":"ripple-adder","width":2,"seed":7},"hd":[1]}`, http.StatusOK},
		// JSON numbers have no leading zeros.
		{"leading zero hd", `{"model":` + model + `,"hd":[01,2]}`, http.StatusBadRequest},
		{"leading zero width", `{"model":{"module":"ripple-adder","width":02,"seed":7},"hd":[1]}`, http.StatusBadRequest},
		{"leading zero seed", `{"model":{"module":"ripple-adder","width":2,"seed":-07},"hd":[1]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postRaw(t, ts.URL+"/v1/estimate", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.code, data)
		}
	}
	if lut := s.met.servedLUT.Value(); lut != 0 {
		t.Errorf("servedLUT = %d, want 0: a fallback shape hit the fast path", lut)
	}
}

// FuzzEstimateFastVsLegacy pins the fast path to the legacy path on
// arbitrary bytes: whenever the fast path answers a body, encoding/json
// (with DisallowUnknownFields) must decode the same bytes into an equal
// estimateRequest, and the legacy path must answer it byte for byte the
// same, both as a compact stream line and as an indented unary response.
// The server holds a basic model (ripple-adder/w2/s7, m = 4) and an
// enhanced nasty-float model (ripple-adder/w3/s1, m = 6, z_clusters 3).
func FuzzEstimateFastVsLegacy(f *testing.F) {
	s := New(Config{BuildFunc: func(_ context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
		if spec.Width == 3 {
			return nastyEnhancedModel(6, 3), nil
		}
		return fakeModel(4), nil
	}})
	f.Cleanup(s.Close)
	for _, spec := range []string{
		`{"module":"ripple-adder","width":2,"seed":7,"wait":true}`,
		`{"module":"ripple-adder","width":3,"seed":1,"wait":true}`,
	} {
		if rec := serveBody(s.Handler(), "/v1/models/build", []byte(spec)); rec.Code != http.StatusOK {
			f.Fatalf("build %s: %d %s", spec, rec.Code, rec.Body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := getScratch()
		defer putScratch(sc)
		compact, ok := s.estimateFastBytes(body, sc, false)
		if !ok {
			return
		}
		compact = bytes.Clone(compact)
		indented, ok := s.estimateFastBytes(body, sc, true)
		if !ok {
			t.Fatal("fast path answered the compact form only")
		}
		indented = bytes.Clone(indented)
		fast, _ := parseEstimateFast(body, sc)

		var want estimateRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("fast path answered a body encoding/json rejects: %v", err)
		}
		got := estimateRequest{
			Model: BuildSpec{Module: string(fast.module), Width: fast.width, Seed: fast.seed},
			Hd:    fast.hd, StableZeros: fast.zeros, Words: fast.words,
		}
		if got.Model != want.Model || !slices.Equal(got.Hd, want.Hd) ||
			!slices.Equal(got.StableZeros, want.StableZeros) || !slices.Equal(got.Words, want.Words) {
			t.Fatalf("fast parser decoded %+v, encoding/json %+v", got, want)
		}

		var line bytes.Buffer
		bw := bufio.NewWriter(&line)
		s.streamLineLegacy(bw, sc, body)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line.Bytes(), append(compact, '\n')) {
			t.Fatalf("stream line differs:\nfast:   %s\nlegacy: %s", compact, line.Bytes())
		}
		rec := httptest.NewRecorder()
		s.estimateLegacy(rec, body)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), indented) {
			t.Fatalf("unary response differs (legacy status %d):\nfast:   %s\nlegacy: %s",
				rec.Code, indented, rec.Body.Bytes())
		}
	})
}

// TestEstimateReadsDuringRCUSwaps hammers the estimate endpoint from many
// goroutines while the model cache continuously completes builds —
// publishing new LUT snapshots and evicting old ones through the LRU.
// Under -race this pins the lock-free read side of the RCU swap.
func TestEstimateReadsDuringRCUSwaps(t *testing.T) {
	s, _ := newTestServer(t, Config{BuildFunc: instantBuilds(4), ModelCache: 4})
	h := s.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec
	}
	buildSeed := func(seed int) {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"module":"ripple-adder","width":2,"seed":%d,"wait":true}`, seed)
		req := httptest.NewRequest(http.MethodPost, "/v1/models/build", strings.NewReader(body))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("build seed %d: %d %s", seed, rec.Code, rec.Body)
		}
	}
	buildSeed(0)

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Rotate across seeds so reads hit fresh snapshots, evicted
				// models (degraded sibling fallback) and never-built keys.
				seed := (g + i) % 12
				body := fmt.Sprintf(
					`{"model":{"module":"ripple-adder","width":2,"seed":%d},"hd":[0,1,2,3,4]}`, seed)
				if rec := post(body); rec.Code != http.StatusOK {
					t.Errorf("estimate seed %d: %d %s", seed, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	// Each build completion swaps the RCU snapshot; capacity 4 forces
	// evictions, so snapshots shrink as well as grow.
	for seed := 1; seed < 40; seed++ {
		buildSeed(seed)
	}
	close(stop)
	wg.Wait()
	if swaps := s.met.lutSwaps.Value(); swaps < 39 {
		t.Errorf("lutSwaps = %d, want >= 39", swaps)
	}
}
