package serve

import (
	"bytes"
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
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/lut"
	"hdpower/internal/obs"
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
		t := s.cache.table(sp.module, sp.width, sp.seed)
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
	goldenStreamDigest = "97ebc0abd948c2e7c23132961eac7a72961238dc94a6b027a7e5640626b04c28"
	goldenUnaryDigest  = "b19ddc4ba6610ce6b119fa98e7fe70f5778f46c37bb02ce0f3b0ad268e8cf4ba"
)

// TestEstimateGoldenDigests pins the exact response bytes of the hot
// path on real characterized models: every stream batch of the fixture,
// and every one of its lines posted alone to /v1/estimate. A change to
// pricing, float rendering or response framing that moves one byte
// fails it.
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
	if got := f.s.met.servedLegacy.Value(); got != 0 {
		t.Errorf("servedLegacy = %d, want 0: a fixture line left the fast path", got)
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
					b.Fatal("fast parser refused a fixture line")
				}
			}
		}
		perCycle(b)
	})

	b.Run("render", func(b *testing.B) {
		// Decode every line once; the slices must outlive the scratch.
		sc := getScratch()
		defer putScratch(sc)
		reqs := make([]fastReq, len(f.lines))
		tables := make([]*lut.Table, len(f.lines))
		modules := make([]string, len(f.lines))
		for i, line := range f.lines {
			req, ok := parseEstimateFast(line, sc)
			if !ok {
				b.Fatal("fast parser refused a fixture line")
			}
			req.hd, req.zeros, req.words = slices.Clone(req.hd), slices.Clone(req.zeros), slices.Clone(req.words)
			reqs[i] = req
			sp := fixtureSpecs[(i%fixtureLines/3)%len(fixtureSpecs)]
			tables[i], modules[i] = f.s.cache.table(sp.module, sp.width, sp.seed), sp.module
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % fixtureBodies * fixtureLines
			for j := k; j < k+fixtureLines; j++ {
				sc.out = appendFastResponse(sc.out[:0], tables[j], modules[j], &reqs[j], false)
			}
		}
		perCycle(b)
	})
}
