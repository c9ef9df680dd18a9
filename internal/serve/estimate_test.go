package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/logic"
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
// extra field leaves the request to encoding/json while it resolves to
// the same cached model (patterns is not part of the key).
func slowModelJSON(module string, width int, seed int64) string {
	return fmt.Sprintf(`{"module":%q,"width":%d,"seed":%d,"patterns":%d}`,
		module, width, seed, defaultPatterns)
}

func fastModelJSON(module string, width int, seed int64) string {
	return fmt.Sprintf(`{"module":%q,"width":%d,"seed":%d}`, module, width, seed)
}

// TestFastSlowEquivalenceLibrary characterizes every catalog module for
// real and pins the two decoders to each other and to encoding/json byte
// for byte: the same series in the hot shape and decoded by encoding/json
// must produce identical response bodies — statuses, floats, field order,
// indentation, everything — equal to referenceAnswer's rendering of the
// built model's core.Model prices.
func TestFastSlowEquivalenceLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the whole catalog")
	}
	s, ts := newTestServer(t, Config{CharWorkers: 1, Backend: core.BackendBitParallel})

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
			model, _, ok := s.cache.readyEntrySpec(BuildSpec{Module: name, Width: width, Seed: 3}.modelKey())
			req, rerr := decodeEstimateJSON([]byte(slowBody))
			if !ok || rerr != nil {
				t.Fatalf("%s: no model (%v) or body undecodable (%v)", name, ok, rerr)
			}
			if _, want := referenceAnswer(t, model, &req, ""); string(fastData) != string(want) {
				t.Errorf("%s %s: answer differs from encoding/json:\ngot:  %s\nwant: %s",
					name, ser, fastData, want)
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

// TestFastSlowEquivalenceNastyFloats pins the table's float text against
// encoding/json on coefficients chosen to hit every formatting branch
// ('e' form thresholds, exponent padding, shortest-representation round
// trips), through both decoders.
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
	req, rerr := decodeEstimateJSON([]byte(slowBody))
	if rerr != nil {
		t.Fatal(rerr.msg)
	}
	if _, want := referenceAnswer(t, nastyModel(m), &req, ""); string(fastData) != string(want) {
		t.Errorf("nasty-float answer differs from encoding/json:\ngot:  %s\nwant: %s", fastData, want)
	}
}

// TestFastPathActuallyServes pins the decoder dispatch: the hand-rolled
// parser accepts a hot-shape request and refuses the same request with a
// patterns field, and both are exact hits answered with the same bytes
// from the published table.
func TestFastPathActuallyServes(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	fast := `{"model":` + fastModelJSON("ripple-adder", 2, 7) + `,"hd":[0,1,2]}`
	slow := `{"model":` + slowModelJSON("ripple-adder", 2, 7) + `,"hd":[0,1,2]}`
	sc := getScratch()
	defer putScratch(sc)
	if _, ok := parseEstimateFast([]byte(fast), sc); !ok {
		t.Fatal("hand-rolled parser refused a hot-shape request")
	}
	if _, ok := parseEstimateFast([]byte(slow), sc); ok {
		t.Fatal("hand-rolled parser accepted a patterns field")
	}
	resp, fastData := postRaw(t, ts.URL+"/v1/estimate", fast)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast estimate: %d %s", resp.StatusCode, fastData)
	}
	resp, slowData := postRaw(t, ts.URL+"/v1/estimate", slow)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow estimate: %d %s", resp.StatusCode, slowData)
	}
	if string(fastData) != string(slowData) {
		t.Fatalf("decoders disagree:\nfast: %s\nslow: %s", fastData, slowData)
	}
	if got := s.met.cacheHits.Value(); got != 2 {
		t.Fatalf("cacheHits = %d, want 2 (both exact hits)", got)
	}
	if got := s.met.lutSwaps.Value(); got < 1 {
		t.Fatalf("lutSwaps = %d, want >= 1 (build must publish a snapshot)", got)
	}
}

// TestEstimateFastAllocs proves the estimator's central claim: a
// steady-state hot-shape estimate — parse, resolve, validate, price,
// render, account — performs zero heap allocations, in both the unary
// (indented) and stream (compact) shapes and in every request mode. A
// number the hand-rolled parser wrongly refused would still be answered
// right, by encoding/json, which allocates, so the bodies also cover
// every digit count from 1 to 20 (words on a 64-input model, up to
// MaxUint64) and bodies whose last number ends 2 to 8 bytes before the
// end, where the parser reads a zero-padded word.
func TestEstimateFastAllocs(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: func(_ context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
		return fakeModel(2 * spec.Width), nil
	}})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})
	for _, seed := range []int64{7, 1234567890123456789, -1234567890123456789} {
		buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 32, "seed": seed})
	}

	wide := fastModelJSON("ripple-adder", 32, 7)
	words := []string{"0"}
	for n := 1; n < 20; n++ {
		words = append(words, "1234567890123456789"[:n])
	}
	words = append(words, strconv.FormatUint(math.MaxUint64, 10))
	reversed := slices.Clone(words)
	slices.Reverse(reversed)
	bodies := map[string]string{
		"hd":          `{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0,1,2,3,4]}`,
		"enhanced":    `{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[1,2],"stable_zeros":[3,1]}`,
		"words":       `{"model":{"module":"ripple-adder","width":2,"seed":7},"words":[0,15,3,9,12]}`,
		"words 1-20":  `{"model":` + wide + `,"words":[` + strings.Join(words, ",") + `]}`,
		"words 20-1":  `{"model":` + wide + `,"words":[` + strings.Join(reversed, ",") + `]}`,
		"model last":  `{"hd":[64,0],"model":` + wide + `}`,
		"seed 19":     `{"model":{"module":"ripple-adder","width":32,"seed":1234567890123456789},"hd":[1]}`,
		"seed -19":    `{"model":{"module":"ripple-adder","width":32,"seed":-1234567890123456789},"hd":[1]}`,
		"hd 2 digits": `{"model":` + wide + `,"hd":[10,64,9,33]}`,
	}
	for pad := 0; pad <= 6; pad++ {
		tail := strings.Repeat(" ", pad)
		bodies[fmt.Sprintf("hd end-%d", pad+2)] = `{"model":` + wide + `,"hd":[7,64]}` + tail
		bodies[fmt.Sprintf("enhanced end-%d", pad+2)] = `{"model":` + wide + `,"hd":[7,4],"stable_zeros":[57,` +
			strconv.Itoa(60-pad) + "]" + tail + "}"
	}
	for mode, body := range bodies {
		for _, indent := range []bool{true, false} {
			sc := getScratch()
			raw := []byte(body)
			allocs := testing.AllocsPerRun(300, func() {
				if _, rerr := s.estimate(raw, sc, indent); rerr != nil {
					t.Fatalf("%s: %s", mode, rerr.msg)
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

// TestEstimateFastFallbacks enumerates the shapes the hand-rolled parser
// must refuse (escapes, floats, unknown fields and modules, trailing
// data, spec fields beyond the key triple) and the hot-shape bodies that
// fail validation instead, and checks each gets the correct answer end
// to end.
func TestEstimateFastFallbacks(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	model := fastModelJSON("ripple-adder", 2, 7)
	cases := []struct {
		name   string
		body   string
		code   int
		parsed bool // the hand-rolled parser accepts the body
	}{
		{"float hd", `{"model":` + model + `,"hd":[1.5]}`, http.StatusBadRequest, false},
		{"unknown field", `{"model":` + model + `,"hd":[1],"bogus":1}`, http.StatusBadRequest, false},
		{"escaped module", `{"model":{"module":"ripple\u002dadder","width":2,"seed":7},"hd":[1]}`, http.StatusOK, false},
		{"spec patterns", `{"model":` + slowModelJSON("ripple-adder", 2, 7) + `,"hd":[1]}`, http.StatusOK, false},
		{"trailing data", `{"model":` + model + `,"hd":[1]}{}`, http.StatusOK, false},
		{"unknown module", `{"model":{"module":"nonesuch","width":2,"seed":7},"hd":[1]}`, http.StatusBadRequest, false},
		{"hd out of range", `{"model":` + model + `,"hd":[99]}`, http.StatusBadRequest, true},
		{"both modes", `{"model":` + model + `,"hd":[1],"words":[0,1]}`, http.StatusBadRequest, true},
		{"no series", `{"model":` + model + `}`, http.StatusBadRequest, true},
		// encoding/json keeps the last of a repeated key (an array is
		// replaced, not extended); the hand-rolled parser leaves both to it.
		{"repeated hd", `{"model":` + model + `,"hd":[1],"hd":[2]}`, http.StatusOK, false},
		{"repeated words", `{"model":` + model + `,"words":[0,1],"words":[2,3]}`, http.StatusOK, false},
		{"repeated model", `{"model":` + model + `,"model":` + model + `,"hd":[1]}`, http.StatusOK, false},
		{"repeated module", `{"model":{"module":"ripple-adder","module":"ripple-adder","width":2,"seed":7},"hd":[1]}`, http.StatusOK, false},
		// JSON numbers have no leading zeros.
		{"leading zero hd", `{"model":` + model + `,"hd":[01,2]}`, http.StatusBadRequest, false},
		{"leading zero width", `{"model":{"module":"ripple-adder","width":02,"seed":7},"hd":[1]}`, http.StatusBadRequest, false},
		{"leading zero seed", `{"model":{"module":"ripple-adder","width":2,"seed":-07},"hd":[1]}`, http.StatusBadRequest, false},
		{"zero-padded 9 digits", `{"model":` + model + `,"words":[000000001,2]}`, http.StatusBadRequest, false},
		{"zero-padded 17 digits", `{"model":` + model + `,"words":[1,00000000000000002]}`, http.StatusBadRequest, false},
		// The eight-byte scanner takes a number in chunks of eight digits:
		// the largest uint64 is its third chunk's widest accepted value.
		{"max uint64", `{"model":` + model + `,"words":[0,18446744073709551615]}`, http.StatusBadRequest, true},
		{"max uint64 + 1", `{"model":` + model + `,"words":[0,18446744073709551616]}`, http.StatusBadRequest, false},
		{"21 digits", `{"model":` + model + `,"words":[0,100000000000000000000]}`, http.StatusBadRequest, false},
		{"fraction after 8 digits", `{"model":` + model + `,"words":[0,12345678.5]}`, http.StatusBadRequest, false},
		{"exponent after 8 digits", `{"model":` + model + `,"words":[0,12345678e0]}`, http.StatusBadRequest, false},
		{"fraction after 16 digits", `{"model":` + model + `,"words":[0,1234567812345678.0]}`, http.StatusBadRequest, false},
		{"exponent after 16 digits", `{"model":` + model + `,"words":[0,1234567812345678E2]}`, http.StatusBadRequest, false},
	}
	sc := getScratch()
	defer putScratch(sc)
	for _, tc := range cases {
		if _, ok := parseEstimateFast([]byte(tc.body), sc); ok != tc.parsed {
			t.Errorf("%s: hand-rolled parser accepted = %v, want %v", tc.name, ok, tc.parsed)
		}
		resp, data := postRaw(t, ts.URL+"/v1/estimate", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.code, data)
		}
	}
}

// estimateResponse is the JSON shape of an estimate answer, for tests to
// decode answers and for referenceAnswer to render them with
// encoding/json.
type estimateResponse struct {
	Key       string    `json:"key"`
	Cycles    int       `json:"cycles"`
	Enhanced  bool      `json:"enhanced"`
	Estimates []float64 `json:"estimates"`
	Total     float64   `json:"total"`
	Mean      float64   `json:"mean"`
	// Degraded marks an answer served from a fallback model instead of the
	// exact cached one; Fallback names the rung ("seed", "library",
	// "regression").
	Degraded bool   `json:"degraded,omitempty"`
	Fallback string `json:"fallback,omitempty"`
}

// referenceAnswer prices a request that validates against model with the
// core.Model methods and renders the answer with encoding/json: compact
// as json.Marshal renders it (a stream line, before its newline) and
// indented as writeJSON's json.Encoder renders it (a unary body).
func referenceAnswer(tb testing.TB, model *core.Model, req *estimateRequest, fallback string) (compact, indented []byte) {
	tb.Helper()
	var est []float64
	var enhanced bool
	switch {
	case len(req.Words) > 0:
		m := model.InputBits
		enhanced = model.HasEnhanced()
		for i := 1; i < len(req.Words); i++ {
			prev, cur := logic.FromUint(req.Words[i-1], m), logic.FromUint(req.Words[i], m)
			if enhanced {
				est = append(est, model.PEnhanced(logic.Hd(prev, cur), logic.StableZeros(prev, cur)))
			} else {
				est = append(est, model.P(logic.Hd(prev, cur)))
			}
		}
	case len(req.StableZeros) > 0:
		var err error
		if est, err = model.EstimateEnhanced(req.Hd, req.StableZeros); err != nil {
			tb.Fatal(err)
		}
		enhanced = model.HasEnhanced()
	default:
		est = model.EstimateBasic(req.Hd)
	}
	var total float64
	for _, q := range est {
		total += q
	}
	resp := estimateResponse{
		Key: req.Model.Key(), Cycles: len(est), Enhanced: enhanced, Estimates: est,
		Total: total, Mean: total / float64(len(est)), Degraded: fallback != "", Fallback: fallback,
	}
	compact, err := json.Marshal(resp)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		tb.Fatal(err)
	}
	return compact, buf.Bytes()
}

// FuzzEstimateDecoders pins the two decoders to each other and the
// estimator to encoding/json on arbitrary bytes: whenever the hand-rolled
// parser accepts a body, encoding/json (with DisallowUnknownFields) must
// decode an equal estimateRequest, and whenever the estimator answers a
// body, its compact stream line and indented unary body must equal
// referenceAnswer's for the model that answered. The server holds a basic
// model (ripple-adder/w2/s7, m = 4) and an enhanced nasty-float model
// (ripple-adder/w3/s1, m = 6, z_clusters 3); other seeds of those widths
// get the seed rung.
func FuzzEstimateDecoders(f *testing.F) {
	models := map[int]*core.Model{2: fakeModel(4), 3: nastyEnhancedModel(6, 3)}
	seeds := map[int]int64{2: 7, 3: 1}
	s := New(Config{BuildFunc: func(_ context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
		return models[spec.Width], nil
	}})
	f.Cleanup(s.Close)
	for _, width := range []int{2, 3} {
		spec := fmt.Sprintf(`{"module":"ripple-adder","width":%d,"seed":%d,"wait":true}`, width, seeds[width])
		if rec := serveBody(s.Handler(), "/v1/models/build", []byte(spec)); rec.Code != http.StatusOK {
			f.Fatalf("build %s: %d %s", spec, rec.Code, rec.Body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := getScratch()
		defer putScratch(sc)
		want, jsonErr := decodeEstimateJSON(body)
		if got, ok := parseEstimateFast(body, sc); ok {
			if jsonErr != nil {
				t.Fatalf("hand-rolled parser accepted a body encoding/json rejects: %s", jsonErr.msg)
			}
			if got.Model != want.Model || !slices.Equal(got.Hd, want.Hd) ||
				!slices.Equal(got.StableZeros, want.StableZeros) || !slices.Equal(got.Words, want.Words) {
				t.Fatalf("hand-rolled parser decoded %+v, encoding/json %+v", got, want)
			}
		}
		compact, rerr := s.estimate(body, sc, false)
		if rerr != nil {
			return
		}
		compact = bytes.Clone(compact)
		indented, rerr := s.estimate(body, sc, true)
		if rerr != nil {
			t.Fatalf("answered the compact form only: %s", rerr.msg)
		}
		model := models[want.Model.Width]
		if jsonErr != nil || want.Model.Module != "ripple-adder" || model == nil {
			t.Fatalf("answered %q, which no built model serves", body)
		}
		fallback := ""
		if want.Model.Seed != seeds[want.Model.Width] {
			fallback = fallbackSeed
		}
		wantCompact, wantIndented := referenceAnswer(t, model, &want, fallback)
		if !bytes.Equal(compact, wantCompact) {
			t.Fatalf("stream line differs:\ngot:  %s\nwant: %s", compact, wantCompact)
		}
		if !bytes.Equal(indented, wantIndented) {
			t.Fatalf("unary answer differs:\ngot:  %s\nwant: %s", indented, wantIndented)
		}
	})
}

// FuzzScanUint64 pins the hand-rolled parser's eight-byte number scanner
// to strconv on arbitrary bytes from an arbitrary offset: it accepts
// exactly when the run of digits there is non-empty, has no leading zero,
// parses with strconv.ParseUint and is not followed by a fraction or an
// exponent, and then returns ParseUint's value, consumes exactly the run
// and reports the byte after it (0 at the end of the bytes).
func FuzzScanUint64(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, off uint) {
		start := int(off % uint(len(data)+1))
		end := start
		for end < len(data) && data[end] >= '0' && data[end] <= '9' {
			end++
		}
		run := string(data[start:end])
		var next byte
		if end < len(data) {
			next = data[end]
		}
		want, err := strconv.ParseUint(run, 10, 64)
		accept := err == nil && (run[0] != '0' || len(run) == 1) &&
			next != '.' && next != 'e' && next != 'E'
		got, gotEnd, gotNext, ok := scanUint(data, start)
		if ok != accept {
			t.Fatalf("scanner accepted %q at %d = %v, want %v", data, start, ok, accept)
		}
		if ok && (got != want || gotEnd != end || gotNext != next) {
			t.Fatalf("scanned %q at %d as %d up to %d before %q, want %d up to %d before %q",
				data, start, got, gotEnd, gotNext, want, end, next)
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
