package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/lut"
	"hdpower/internal/modellib"
	"hdpower/internal/obs"
	"hdpower/internal/regress"
)

// The stream fixture mirrors perfbench's serve-stream mix: NDJSON batches
// of 12 lines, 256 cycles per line, the three hot shapes (hd, words,
// hd plus stable_zeros) in turn, and the served model switching every
// three lines between csa-multiplier:8 with its enhanced table and
// ripple-adder:16 basic-only.
const (
	fixtureBodies = 16
	fixtureLines  = 12
	fixtureCycles = 256
)

type fixtureSpec struct {
	module   string
	width    int
	seed     int64
	enhanced bool
}

var fixtureSpecs = []fixtureSpec{
	{"csa-multiplier", 8, 11, true},
	{"ripple-adder", 16, 12, false},
}

type streamFixture struct {
	s      *Server
	h      http.Handler
	tables []*lut.Table // per fixtureSpecs entry
	bodies [][]byte     // NDJSON batches
	lines  [][]byte     // every line of every batch, in batch order
}

// serveBody runs one POST through h in-process.
func serveBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// newStreamFixture builds both models on the bit-parallel backend at the
// default pattern budget, configured like cmd/hdserve (text access log at
// info level, here discarded), and renders the request pool from a fixed
// seed.
func newStreamFixture(tb testing.TB) *streamFixture {
	tb.Helper()
	s := New(Config{
		Backend: core.BackendBitParallel,
		Logger:  obs.NewLogger(io.Discard, "text", slog.LevelInfo),
	})
	tb.Cleanup(s.Close)
	f := &streamFixture{s: s, h: s.Handler()}
	for _, sp := range fixtureSpecs {
		req := fmt.Sprintf(`{"module":%q,"width":%d,"seed":%d,"enhanced":%t,"wait":true}`,
			sp.module, sp.width, sp.seed, sp.enhanced)
		if rec := serveBody(f.h, "/v1/models/build", []byte(req)); rec.Code != http.StatusOK {
			tb.Fatalf("build %s: %d %s", req, rec.Code, rec.Body)
		}
		t := s.cache.table(BuildSpec{Module: sp.module, Width: sp.width, Seed: sp.seed}.modelKey())
		if t == nil {
			tb.Fatalf("build %s published no table", req)
		}
		f.tables = append(f.tables, t)
	}
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < fixtureBodies; b++ {
		var batch []byte
		for j := 0; j < fixtureLines; j++ {
			mi := (j / 3) % len(fixtureSpecs)
			line := appendFixtureLine(nil, rng, fixtureSpecs[mi], f.tables[mi].InputBits, j%3)
			f.lines = append(f.lines, line)
			batch = append(append(batch, line...), '\n')
		}
		f.bodies = append(f.bodies, batch)
	}
	return f
}

// appendFixtureLine renders one request of the given shape (0 hd, 1 words,
// 2 hd plus stable_zeros) with uniformly drawn classes or words.
func appendFixtureLine(b []byte, rng *rand.Rand, sp fixtureSpec, m, shape int) []byte {
	b = fmt.Appendf(b, `{"model":{"module":%q,"width":%d,"seed":%d}`, sp.module, sp.width, sp.seed)
	if shape == 1 {
		mask := uint64(1)<<uint(m) - 1
		b = append(b, `,"words":[`...)
		for i := 0; i <= fixtureCycles; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, rng.Uint64()&mask, 10)
		}
		return append(b, "]}"...)
	}
	hd := make([]int, fixtureCycles)
	b = append(b, `,"hd":[`...)
	for i := range hd {
		hd[i] = rng.Intn(m + 1)
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(hd[i]), 10)
	}
	b = append(b, ']')
	if shape == 2 {
		b = append(b, `,"stable_zeros":[`...)
		for i := range hd {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(rng.Intn(m-hd[i]+1)), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// Digests of every answer the fixture's requests get, stream batches and
// unary requests separately.
const (
	goldenStreamDigest = "39bbdb2c815654df04c891170aa75af8235e8e1b48e93c1ac96e8a17ae6bf298"
	goldenUnaryDigest  = "fd8af1b8365cab358ea623e6f7adc30e954a2b4589d79f396906e3ce93986f6c"
)

// TestEstimateGoldenDigests pins the exact response bytes of the hot
// shape on real characterized models: every stream batch of the fixture,
// and every one of its lines posted alone to /v1/estimate. A change to
// pricing, float rendering or response framing that moves one byte
// fails it, and every fixture line must stay in the hand-rolled parser's
// shape, as every perfbench line is.
func TestEstimateGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes two models")
	}
	f := newStreamFixture(t)
	stream, unary := sha256.New(), sha256.New()
	for i, body := range f.bodies {
		rec := serveBody(f.h, "/v1/estimate/stream", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("stream body %d: %d %s", i, rec.Code, rec.Body)
		}
		stream.Write(rec.Body.Bytes())
	}
	for i, line := range f.lines {
		rec := serveBody(f.h, "/v1/estimate", line)
		if rec.Code != http.StatusOK {
			t.Fatalf("unary line %d: %d %s", i, rec.Code, rec.Body)
		}
		unary.Write(rec.Body.Bytes())
	}
	sc := getScratch()
	defer putScratch(sc)
	for i, line := range f.lines {
		if _, ok := parseEstimateFast(line, sc); !ok {
			t.Errorf("hand-rolled parser refused fixture line %d", i)
		}
	}
	if got, want := hex.EncodeToString(stream.Sum(nil)), goldenStreamDigest; got != want {
		t.Errorf("stream digest %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(unary.Sum(nil)), goldenUnaryDigest; got != want {
		t.Errorf("unary digest %s, want %s", got, want)
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing but the
// status, so the handler benchmark measures the handler alone.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkEstimateStream times the stream plane in process, with no
// sockets, on the fixture's batches. One op is one 12-line batch (3072
// cycles); ns/cycle divides by the cycles priced.
//
//   - handler: Handler().ServeHTTP, middleware and access log included;
//   - parse: parseEstimateFast over each line of the batch;
//   - render: pricing and rendering of already-decoded lines.
func BenchmarkEstimateStream(b *testing.B) {
	f := newStreamFixture(b)
	cycles := fixtureLines * fixtureCycles
	perCycle := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cycles), "ns/cycle")
	}

	b.Run("handler", func(b *testing.B) {
		reader := bytes.NewReader(nil)
		body := io.NopCloser(reader)
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate/stream", nil)
		w := &discardWriter{header: make(http.Header)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data := f.bodies[i%len(f.bodies)]
			reader.Reset(data)
			req.Body = body // the middleware wraps it on every call
			req.ContentLength = int64(len(data))
			f.h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
		}
		perCycle(b)
	})

	b.Run("parse", func(b *testing.B) {
		sc := getScratch()
		defer putScratch(sc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % fixtureBodies * fixtureLines
			for _, line := range f.lines[k : k+fixtureLines] {
				if _, ok := parseEstimateFast(line, sc); !ok {
					b.Fatal("hand-rolled parser refused a fixture line")
				}
			}
		}
		perCycle(b)
	})

	b.Run("render", func(b *testing.B) {
		// Decode every line once; the slices must outlive the scratch.
		sc := getScratch()
		defer putScratch(sc)
		reqs := make([]estimateRequest, len(f.lines))
		tables := make([]*lut.Table, len(f.lines))
		cycles := make([]int, len(f.lines))
		for i, line := range f.lines {
			req, ok := parseEstimateFast(line, sc)
			if !ok {
				b.Fatal("hand-rolled parser refused a fixture line")
			}
			req.Hd, req.StableZeros, req.Words = slices.Clone(req.Hd), slices.Clone(req.StableZeros), slices.Clone(req.Words)
			reqs[i] = req
			tables[i] = f.s.cache.table(req.Model.modelKey())
			cycles[i] = max(len(req.Hd), len(req.Words)-1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % fixtureBodies * fixtureLines
			for j := k; j < k+fixtureLines; j++ {
				sc.out = appendEstimate(sc.out[:0], tables[j], &reqs[j], cycles[j], "", false)
			}
		}
		perCycle(b)
	})
}

// goldenOffPathDigests pins every estimate answer that is not a hot-shape
// exact hit: bodies only encoding/json decodes, answers from each rung of
// the degradation chain, error bodies with their stream error lines,
// /v1/estimate/stats answers, and the accounting (cache hits, cycles,
// degraded counts, profiled Hd mix) those requests leave behind. Names are
// server/set/plane.
var goldenOffPathDigests = map[string]string{
	"fixture/accounting":       "70113cf97256e1de283526c843d9112a00353aaf077d8d5f3a1bbc6f5b804133",
	"fixture/decoded/stream":   "c8879168adbf416a5d02230711d4be96e66f5b13a2690a209f3fd6d36f54c8e1",
	"fixture/decoded/unary":    "691de9ee16f9c245ec221159554eac571a452a53acac2f4ca8618b5136db2321",
	"fixture/errors/stream":    "fc78e934b74191eca3357b23311dbf1fc7a6fefcbfe38c0f0d6e8d0002d40d21",
	"fixture/errors/unary":     "ca5012276d1452e47928881a554e3aa9cffb49f6b5aa2c845307b4391430f022",
	"fixture/seed/stream":      "2f67e79de4dae3ad299262b2bf4fd07ca8b42009d2e5c4adfc4037e31587168e",
	"fixture/seed/unary":       "88904faeb66fef746e82d77ff198a4958186d0a41ef2639e1536d836062b7730",
	"fixture/stats":            "8825f9ae3c00698ed9081079a3cc09ce7dcd7f313fa9a80da432d82077efe46f",
	"library/accounting":       "394cea07e1fd87e8833a0552cc07d780eb5aacd407d09ad1a0361124f213ea0e",
	"library/estimates/stream": "3981f7680d14f97a615b17cf622a96794a06321a314443b260143772df4e2150",
	"library/estimates/unary":  "b52e7eba4eb0b74273285780b68f1a509bad477e55cf39f8b55ccde7133bc599",
	"library/stats":            "d53872ecf22c456f2843a61a4cd20d62abb23329f8c9828015d5966d5013e156",
}

// TestEstimateOffPathDigests pins the exact status and bytes of every
// answer outside the hot shape's exact hit, on the fixture's models and on
// a second server that answers them from its model library, so a change
// to how such requests are decoded, resolved, validated, priced or
// rendered cannot move a byte or a counter unnoticed.
func TestEstimateOffPathDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes two models")
	}
	f := newStreamFixture(t)
	got := map[string]string{}
	hot := f.lines[:2*3] // each shape once on each model

	var decoded, seed [][]byte
	for i, line := range hot {
		sp := fixtureSpecs[i/3]
		decoded = append(decoded, decodedVariants(line, sp, i%3)...)
		other := withSeed(line, sp, 99)
		seed = append(seed, other, withPatterns(other, sp.module))
	}
	digestEstimates(f.h, "fixture/decoded", decoded, got)
	digestEstimates(f.h, "fixture/seed", seed, got)
	digestEstimates(f.h, "fixture/errors", estimateErrorBodies(), got)
	digestStats(f.h, "fixture/stats", []string{
		statsBody("csa-multiplier", 8, 11, `"mean":100,"std":40,"rho":0.6,"width":8`),
		statsBody("csa-multiplier", 8, 11, `"mean":3,"std":2.5,"rho":-0.2,"width":4,"ports":4,"n":500`),
		statsBody("ripple-adder", 16, 12, `"mean":1000,"std":3000,"rho":-0.3,"width":16`),
		statsBody("ripple-adder", 16, 99, `"mean":10,"std":7,"rho":0.9,"width":16,"ports":2`),
		statsBody("csa-multiplier", 8, 11, `"mean":1,"std":0,"rho":0,"width":8`),
		statsBody("csa-multiplier", 8, 11, `"mean":1,"std":1,"rho":2,"width":8`),
		statsBody("csa-multiplier", 8, 11, `"mean":1,"std":1,"rho":0,"width":0`),
		statsBody("csa-multiplier", 8, 11, `"mean":1,"std":1,"rho":0,"width":17`),
		statsBody("csa-multiplier", 8, 11, `"mean":1,"std":1,"rho":0,"width":3`),
		statsBody("csa-multiplier", 8, 11, `"mean":1,"std":1,"rho":0,"width":8,"ports":3`),
		statsBody("csa-multiplier", 8, 11, `"mean":1,"std":1,"rho":0,"width":8,"ports":-2`),
		statsBody("csa-multiplier", 4, 11, `"mean":1,"std":1,"rho":0,"width":4`),
		statsBody("nonesuch", 8, 11, `"mean":1,"std":1,"rho":0,"width":4`),
		statsBody("csa-multiplier", 8, 11, `"mean":1,"std":1,"rho":0,"width":8,"bogus":1`),
		`{"model":`,
	}, got)
	got["fixture/accounting"] = accountingDigest(f.s)

	lib := newLibraryServer(t, f)
	regression := fixtureSpec{"ripple-adder", 12, 5, false}
	rng := rand.New(rand.NewSource(2))
	var fromLib [][]byte
	for i, line := range hot {
		fromLib = append(fromLib, line, withPatterns(line, fixtureSpecs[i/3].module))
	}
	for shape := 0; shape < 3; shape++ {
		line := appendFixtureLine(nil, rng, regression, 2*regression.width, shape)
		fromLib = append(fromLib, line, withPatterns(line, regression.module))
	}
	wide := `{"module":"cla-adder","width":3,"seed":1}`
	var classes, zeros []string
	for i := 0; i <= 70; i++ {
		classes = append(classes, strconv.Itoa(i))
		zeros = append(zeros, strconv.Itoa((70-i)/2))
	}
	for _, body := range []string{
		`{"model":` + wide + `,"hd":[` + strings.Join(classes, ",") + `]}`,
		`{"model":` + wide + `,"hd":[` + strings.Join(classes, ",") + `],"stable_zeros":[` + strings.Join(zeros, ",") + `]}`,
		`{"model":{"module":"cla-adder","width":3,"seed":1,"z_clusters":2},"hd":[70,1,35],"stable_zeros":[0,69,20]}`,
		`{"model":{"module":"cla-adder","width":3,"seed":4},"hd":[0,1,35,70]}`,
		`{"model":` + wide + `,"words":[0,1]}`,
		`{"model":{"module":"cla-adder","width":8,"seed":1},"hd":[1]}`,
		`{"model":` + wide + `,"hd":[0` + strings.Repeat(",0", maxBatchCycles) + `]}`,
		`{"model":{"module":"csa-multiplier","width":8,"seed":11},"words":[0` + strings.Repeat(",0", maxBatchCycles+1) + `]}`,
	} {
		fromLib = append(fromLib, []byte(body))
	}
	digestEstimates(lib.Handler(), "library/estimates", fromLib, got)
	digestStats(lib.Handler(), "library/stats", []string{
		statsBody("csa-multiplier", 8, 11, `"mean":100,"std":40,"rho":0.6,"width":8`),
		statsBody("ripple-adder", 16, 12, `"mean":1000,"std":3000,"rho":-0.3,"width":16`),
		statsBody("ripple-adder", 12, 5, `"mean":200,"std":90,"rho":0.4,"width":12`),
		statsBody("ripple-adder", 12, 5, `"mean":5,"std":3,"rho":0,"width":6,"ports":4,"n":64`),
		statsBody("cla-adder", 3, 1, `"mean":7,"std":30,"rho":0.1,"width":35`),
		statsBody("cla-adder", 3, 4, `"mean":7,"std":30,"rho":0.1,"width":35,"ports":2`),
		statsBody("cla-adder", 8, 1, `"mean":7,"std":3,"rho":0.1,"width":8`),
	}, got)
	got["library/accounting"] = accountingDigest(lib)

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if want := goldenOffPathDigests[name]; got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
	if len(goldenOffPathDigests) != len(got) {
		t.Errorf("%d golden digests, %d computed", len(goldenOffPathDigests), len(got))
	}
}

// decodedVariants rewrites a hot-shape fixture line into bodies the
// hand-rolled parser refuses but encoding/json decodes to the same
// request: a patterns field, an escaped module name, a repeated series
// key, a repeated model object (the second decodes into the first, which
// keeps its patterns), and trailing data.
func decodedVariants(line []byte, sp fixtureSpec, shape int) [][]byte {
	escaped := strings.Replace(sp.module, "-", `\u002d`, 1)
	series := [...]string{`"hd":[1]`, `"words":[0,1]`, `"stable_zeros":[0]`}[shape]
	return [][]byte{
		withPatterns(line, sp.module),
		bytes.Replace(line, []byte(`"`+sp.module+`"`), []byte(`"`+escaped+`"`), 1),
		append([]byte(`{`+series+`,`), line[1:]...),
		append([]byte(`{"model":{"module":"cla-adder","patterns":7},`), line[1:]...),
		append(slices.Clone(line), `{}`...),
	}
}

// withPatterns adds an explicit patterns field to a line's model object.
func withPatterns(line []byte, module string) []byte {
	return bytes.Replace(line, []byte(`{"module":"`+module+`"`),
		fmt.Appendf(nil, `{"patterns":%d,"module":"%s"`, defaultPatterns, module), 1)
}

// withSeed points a fixture line at another seed of the same model.
func withSeed(line []byte, sp fixtureSpec, seed int64) []byte {
	return bytes.Replace(line, fmt.Appendf(nil, `"seed":%d}`, sp.seed), fmt.Appendf(nil, `"seed":%d}`, seed), 1)
}

// estimateErrorBodies is one request for every estimate error the fixture
// server can answer, last a body over the default 1 MiB cap, plus the one
// edge that succeeds: stable zeros beside words, which words mode ignores.
func estimateErrorBodies() [][]byte {
	csa := `{"module":"csa-multiplier","width":8,"seed":11}`
	var bodies [][]byte
	for _, body := range []string{
		`not json`,
		`{"model":`,
		`{"model":` + csa + `,"hd":[1.5]}`,
		`{"model":` + csa + `,"hd":"1"}`,
		`{"model":` + csa + `,"hd":[1],"bogus":1}`,
		`{"model":{"module":"csa-multiplier","width":8,"seed":11,"bogus":1},"hd":[1]}`,
		`{"model":` + csa + `,"hd":[01]}`,
		`{"model":` + csa + `,"hd":[99999999999]}`,
		`{"model":` + csa + `,"hd":[99999999999999999999]}`,
		`{"model":` + csa + `,"words":[-1,2]}`,
		`{"model":{"module":"nonesuch","width":8,"seed":11},"hd":[1]}`,
		`{"hd":[1]}`,
		`{"model":{"module":"csa-multiplier","width":0,"seed":11},"hd":[1]}`,
		`{"model":{"module":"csa-multiplier","width":-3,"seed":11},"hd":[1]}`,
		`{"model":{"module":"csa-multiplier","width":33,"seed":11},"hd":[1]}`,
		`{"model":{"module":"csa-multiplier","width":8,"seed":11,"patterns":-5},"hd":[1]}`,
		`{"model":{"module":"csa-multiplier","width":8,"seed":11,"patterns":200001},"hd":[1]}`,
		`{"model":{"module":"csa-multiplier","width":8,"seed":11,"z_clusters":-1},"hd":[1]}`,
		`{"model":{"module":"csa-multiplier","width":4,"seed":11},"hd":[1]}`,
		`{"model":{"module":"cla-adder","width":8,"seed":1},"hd":[99]}`,
		`{"model":` + csa + `}`,
		`{"model":` + csa + `,"hd":[]}`,
		`{"model":` + csa + `,"words":[]}`,
		`{"model":` + csa + `,"stable_zeros":[1]}`,
		`{"model":` + csa + `,"hd":[1],"words":[0,1]}`,
		`{"model":` + csa + `,"words":[3]}`,
		`{"model":` + csa + `,"words":[65536,1]}`,
		`{"model":` + csa + `,"words":[1,18446744073709551615]}`,
		`{"model":` + csa + `,"words":[0,1],"stable_zeros":[1]}`,
		`{"model":` + csa + `,"hd":[0,17]}`,
		`{"model":` + csa + `,"hd":[-1]}`,
		`{"model":` + csa + `,"hd":[1,2],"stable_zeros":[0]}`,
		`{"model":` + csa + `,"hd":[3],"stable_zeros":[14]}`,
		`{"model":` + csa + `,"hd":[3],"stable_zeros":[-1]}`,
		`{"model":` + csa + `,"hd":[3],"stable_zeros":[1],"stable_zeros":[1,2]}`,
		`{"model":{"module":"ripple-adder","width":16,"seed":12},"hd":[33]}`,
		`{"model":{"module":"csa-multiplier","width":8,"seed":99},"hd":[17]}`,
		`{"model":{"module":"csa-multiplier","width":8,"seed":11},"hd":[17]}`,
		`{"model":` + csa + `,"hd":[0` + strings.Repeat(",0", 600_000) + `]}`,
	} {
		bodies = append(bodies, []byte(body))
	}
	return bodies
}

func statsBody(module string, width int, seed int64, fields string) string {
	return fmt.Sprintf(`{"model":{"module":%q,"width":%d,"seed":%d},%s}`, module, width, seed, fields)
}

// digestEstimates posts every body to /v1/estimate, then all of them as
// one NDJSON batch to /v1/estimate/stream, and records the SHA-256 of the
// unary statuses and bodies as name/unary and of the stream answer as
// name/stream.
func digestEstimates(h http.Handler, name string, bodies [][]byte, got map[string]string) {
	unary := sha256.New()
	var batch []byte
	for _, body := range bodies {
		rec := serveBody(h, "/v1/estimate", body)
		fmt.Fprintf(unary, "%d\n", rec.Code)
		unary.Write(rec.Body.Bytes())
		batch = append(append(batch, body...), '\n')
	}
	got[name+"/unary"] = hex.EncodeToString(unary.Sum(nil))
	rec := serveBody(h, "/v1/estimate/stream", batch)
	stream := sha256.Sum256(fmt.Appendf(nil, "%d\n%s", rec.Code, rec.Body.Bytes()))
	got[name+"/stream"] = hex.EncodeToString(stream[:])
}

// digestStats records the SHA-256 of the statuses and bodies of every
// body posted to /v1/estimate/stats.
func digestStats(h http.Handler, name string, bodies []string, got map[string]string) {
	sum := sha256.New()
	for _, body := range bodies {
		rec := serveBody(h, "/v1/estimate/stats", []byte(body))
		fmt.Fprintf(sum, "%d\n", rec.Code)
		sum.Write(rec.Body.Bytes())
	}
	got[name] = hex.EncodeToString(sum.Sum(nil))
}

// accountingDigest is the SHA-256 of what estimate traffic left in the
// server's counters and traffic profiler, latencies excluded.
func accountingDigest(s *Server) string {
	sum := sha256.New()
	fmt.Fprintf(sum, "hits=%d cycles=%d", s.met.cacheHits.Value(), s.met.estCycles.Value())
	for _, fb := range []string{fallbackSeed, fallbackLibrary, fallbackRegression} {
		fmt.Fprintf(sum, " %s=%d", fb, s.met.estimateDegraded(fb).Value())
	}
	for _, ms := range s.tel.Profiler().SnapshotModels() {
		fmt.Fprintf(sum, "\n%s classes=%d requests=%d estimates=%d hd=%v",
			ms.Key, ms.Classes, ms.Requests, ms.Estimates, ms.HdHits)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// newLibraryServer starts a server whose cache holds only cla-adder/w3/s1,
// a 70-input nasty-float model with a clustered enhanced table, and whose
// model library holds the fixture's two models plus a ripple-adder width
// regression, so fixture requests degrade to the library rung and
// uncharacterized ripple-adder widths to regression synthesis.
func newLibraryServer(t *testing.T, f *streamFixture) *Server {
	t.Helper()
	dir := t.TempDir()
	lib, err := modellib.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range fixtureSpecs {
		key := BuildSpec{Module: sp.module, Width: sp.width, Seed: sp.seed}.modelKey()
		model, _, ok := f.s.cache.readyEntrySpec(key)
		if !ok {
			t.Fatalf("%s not ready", key)
		}
		if err := lib.PutModel(sp.module, sp.width, model); err != nil {
			t.Fatal(err)
		}
	}
	var protos []regress.Prototype
	for _, w := range regress.SetThi.Widths() {
		m := 2 * w
		model := &core.Model{Module: "ripple-adder", InputBits: m, Basic: make([]core.Coef, m)}
		for i := 1; i <= m; i++ {
			model.Basic[i-1] = core.Coef{P: float64(i)*(2*float64(w)+1)/3 + 0.1*float64(i*i), Count: 5}
		}
		protos = append(protos, regress.Prototype{Width: w, Model: model})
	}
	pm, err := regress.Fit("ripple-adder", protos, regress.Linear)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.PutParam(pm); err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		LibraryDir:   dir,
		MaxBodyBytes: 8 << 20,
		BuildFunc: func(context.Context, BuildSpec, *core.Hooks) (*core.Model, error) {
			return nastyEnhancedModel(70, 5), nil
		},
	})
	t.Cleanup(s.Close)
	spec := `{"module":"cla-adder","width":3,"seed":1,"wait":true}`
	if rec := serveBody(s.Handler(), "/v1/models/build", []byte(spec)); rec.Code != http.StatusOK {
		t.Fatalf("build %s: %d %s", spec, rec.Code, rec.Body)
	}
	return s
}
