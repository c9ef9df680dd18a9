package serve

// estimate.go is the estimate data plane behind /v1/estimate and every
// /v1/estimate/stream line: two decoders feeding one estimator. The
// paper's economics only pay off if estimation stays a table lookup all
// the way to the wire, so every answer is priced and rendered from a
// lut.Table: fitted models are flattened at build-complete time and
// published behind an atomic pointer (RCU — see models.go), and every
// coefficient's wire text was rendered once, when its table was built,
// so an answer is this file's framing around bytes the table copies out.
//
// A body in the hot shape is decoded by a hand-rolled parser into pooled
// scratch, so a steady-state request allocates nothing — no encoding/json
// reflection, no model-cache lock. Anything else — escaped strings,
// unknown or repeated fields, non-integer or zero-padded numbers, spec
// fields beyond the cache key — is decoded by encoding/json, which owns
// the "bad request body" errors. Both fill the same estimateRequest, which
// then takes the same resolver, validator, renderer and accounting.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdpower/internal/dwlib"
	"hdpower/internal/lut"
	"hdpower/internal/telemetry"
)

// moduleIntern maps catalog module names to their canonical string, so a
// name parsed as request-body bytes can key the LUT snapshot without
// allocating (map[string]x lookups with a string([]byte) index compile to
// an allocation-free lookup; composite keys do not).
var moduleIntern = func() map[string]string {
	m := make(map[string]string)
	for _, name := range dwlib.Names() {
		m[name] = name
	}
	return m
}()

// lutKey identifies one published table: the same triple BuildSpec.Key
// renders, kept as a comparable struct so lookups need no formatting.
type lutKey struct {
	module string
	width  int
	seed   int64
}

// lutSet is one immutable RCU snapshot of every ready model's flattened
// table. Readers load the current snapshot and index the map — the map is
// never mutated after publication, so concurrent reads are safe without
// locks.
type lutSet struct {
	tables map[lutKey]*lut.Table
}

var emptyLutSet = &lutSet{tables: map[lutKey]*lut.Table{}}

// estScratch is the pooled per-request working set of the estimator:
// request body, hand-parsed series, and the rendered response.
// Steady-state requests allocate nothing; the pool warms to the live
// request concurrency.
type estScratch struct {
	body  []byte
	hd    []int
	zeros []int
	words []uint64
	out   []byte
	// shard is this scratch's telemetry-profiler shard hint, assigned
	// round-robin at pool-miss time. A scratch maps loosely to a concurrent
	// worker, so reusing its hint spreads recorders across counter shards
	// without any per-request work.
	shard uint32
}

// scratchSeq hands out profiler shard hints to freshly allocated scratches.
var scratchSeq atomic.Uint32

// scratch slices beyond these caps are dropped on release instead of
// pooled, so one huge batch cannot pin its buffers forever.
const (
	maxPooledBytes   = 1 << 16
	maxPooledEntries = 1 << 13
)

var scratchPool = sync.Pool{New: func() any {
	return &estScratch{
		body:  make([]byte, 0, 4096),
		hd:    make([]int, 0, 256),
		zeros: make([]int, 0, 256),
		words: make([]uint64, 0, 256),
		out:   make([]byte, 0, 4096),
		shard: scratchSeq.Add(1),
	}
}}

func getScratch() *estScratch { return scratchPool.Get().(*estScratch) }

func putScratch(sc *estScratch) {
	if cap(sc.body) > maxPooledBytes || cap(sc.out) > maxPooledBytes ||
		cap(sc.hd) > maxPooledEntries || cap(sc.zeros) > maxPooledEntries ||
		cap(sc.words) > maxPooledEntries {
		return
	}
	scratchPool.Put(sc)
}

// estimateRequest is one decoded estimate request, from either decoder.
type estimateRequest struct {
	Model BuildSpec `json:"model"`
	// Hd estimates directly from per-cycle Hamming-distance classes,
	// optionally refined by StableZeros (enhanced models).
	Hd          []int `json:"hd,omitempty"`
	StableZeros []int `json:"stable_zeros,omitempty"`
	// Words estimates a batched vector stream: the full input vectors of
	// consecutive cycles, low bits first, at most 64 input bits.
	Words []uint64 `json:"words,omitempty"`
}

// jsParser is a minimal JSON scanner for the hot request shapes. It
// accepts a strict subset of JSON — no escaped strings, integer-only
// numbers without leading zeros, known fields at most once each, catalog
// module names only — and reports failure on anything else, at which
// point the caller decodes the body with encoding/json.
type jsParser struct {
	b    []byte
	i    int
	seen uint8 // key bits of the fields parsed so far
}

// Key bits of jsParser.seen. encoding/json keeps the last of a repeated
// key (and replaces an array rather than extending it), so the
// hand-rolled parser leaves every repeat to it.
const (
	keyModel = 1 << iota
	keyHd
	keyZeros
	keyWords
	keyModule
	keyWidth
	keySeed
)

// first records key and reports whether it is its first occurrence.
func (p *jsParser) first(key uint8) bool {
	if p.seen&key != 0 {
		return false
	}
	p.seen |= key
	return true
}

func (p *jsParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *jsParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str parses a string without escapes and returns the raw bytes between
// the quotes.
func (p *jsParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '\\':
			return nil, false // escapes are encoding/json's
		case '"':
			s := p.b[start:p.i]
			p.i++
			return s, true
		}
		p.i++
	}
	return nil, false
}

// int64 parses an optionally signed integer literal. A fraction or
// exponent fails the parse (encoding/json reports the type error).
func (p *jsParser) int64() (int64, bool) {
	neg := p.eat('-')
	u, ok := p.uint64()
	if !ok {
		return 0, false
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

// uint64 parses an unsigned integer literal with overflow detection.
func (p *jsParser) uint64() (uint64, bool) {
	start := p.i
	var v uint64
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
		p.i++
	}
	if p.i == start || p.b[start] == '0' && p.i-start > 1 {
		return 0, false // no digits, or a leading zero JSON forbids
	}
	if p.i < len(p.b) {
		switch p.b[p.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	return v, true
}

// intArray parses a JSON array of integers into dst (reusing its
// capacity) and returns the filled slice.
func (p *jsParser) intArray(dst []int) ([]int, bool) {
	if !p.eat('[') {
		return nil, false
	}
	p.ws()
	if p.eat(']') {
		return dst, true
	}
	for {
		p.ws()
		v, ok := p.int64()
		if !ok || v > math.MaxInt32 || v < math.MinInt32 {
			return nil, false
		}
		dst = append(dst, int(v))
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return dst, true
		}
		return nil, false
	}
}

// uintArray parses a JSON array of unsigned integers into dst.
func (p *jsParser) uintArray(dst []uint64) ([]uint64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	p.ws()
	if p.eat(']') {
		return dst, true
	}
	for {
		p.ws()
		v, ok := p.uint64()
		if !ok {
			return nil, false
		}
		dst = append(dst, v)
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return dst, true
		}
		return nil, false
	}
}

// model parses the inner BuildSpec object. Only the cache-key fields are
// accepted, and the module name only when it is a catalog name, which
// the spec then holds in its interned form (moduleIntern); anything else
// is left to encoding/json.
func (p *jsParser) model(spec *BuildSpec) bool {
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return true
	}
	for {
		p.ws()
		key, ok := p.str()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		switch string(key) {
		case "module":
			s, ok := p.str()
			if !ok || !p.first(keyModule) {
				return false
			}
			if spec.Module, ok = moduleIntern[string(s)]; !ok {
				return false
			}
		case "width":
			v, ok := p.int64()
			if !ok || v < 0 || v > math.MaxInt32 || !p.first(keyWidth) {
				return false
			}
			spec.Width = int(v)
		case "seed":
			v, ok := p.int64()
			if !ok || !p.first(keySeed) {
				return false
			}
			spec.Seed = v
		default:
			return false
		}
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat('}') {
			return true
		}
		return false
	}
}

// parseEstimateFast decodes one estimate request in the hot shape into
// the scratch slices, allocation-free. ok is false when the body needs
// encoding/json; the scratch slices are (re)used as backing storage
// either way.
func parseEstimateFast(body []byte, sc *estScratch) (estimateRequest, bool) {
	var req estimateRequest
	sc.hd = sc.hd[:0]
	sc.zeros = sc.zeros[:0]
	sc.words = sc.words[:0]
	p := jsParser{b: body}
	p.ws()
	if !p.eat('{') {
		return req, false
	}
	p.ws()
	if p.eat('}') {
		p.ws()
		return req, p.i == len(p.b)
	}
	for {
		p.ws()
		key, ok := p.str()
		if !ok {
			return req, false
		}
		p.ws()
		if !p.eat(':') {
			return req, false
		}
		p.ws()
		switch string(key) {
		case "model":
			if !p.first(keyModel) || !p.model(&req.Model) {
				return req, false
			}
		case "hd":
			if !p.first(keyHd) {
				return req, false
			}
			sc.hd, ok = p.intArray(sc.hd)
			if !ok {
				return req, false
			}
			req.Hd = sc.hd
		case "stable_zeros":
			if !p.first(keyZeros) {
				return req, false
			}
			sc.zeros, ok = p.intArray(sc.zeros)
			if !ok {
				return req, false
			}
			req.StableZeros = sc.zeros
		case "words":
			if !p.first(keyWords) {
				return req, false
			}
			sc.words, ok = p.uintArray(sc.words)
			if !ok {
				return req, false
			}
			req.Words = sc.words
		default:
			return req, false
		}
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat('}') {
			break
		}
		return req, false
	}
	p.ws()
	return req, p.i == len(p.b)
}

// decodeEstimateJSON is the decoder for every body the hand-rolled parser
// refuses: encoding/json with unknown fields refused, reading the first
// JSON value only. It decodes into a request of its own because the
// value Decode is handed moves to the heap; decoding into the
// estimator's request would cost every hot-shape request an allocation.
func decodeEstimateJSON(body []byte) (estimateRequest, *requestError) {
	var req estimateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, badRequest("bad request body: %v", err)
	}
	return req, nil
}

// readBody drains the request body into the pooled scratch buffer,
// growing it only when the body outruns the pooled capacity. Failures are
// translated exactly as readJSON translates them: 413 for a body over the
// MaxBytesReader cap, 400 for anything else.
func readBody(w http.ResponseWriter, r *http.Request, sc *estScratch) bool {
	sc.body = sc.body[:0]
	for {
		if len(sc.body) == cap(sc.body) {
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := r.Body.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if err == io.EOF {
			return true
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"request body exceeds %d bytes", tooLarge.Limit)
			} else {
				writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			}
			return false
		}
	}
}

// estimate answers one estimate request body — a unary body or one
// stream line — into sc.out: decode, resolve the model's table (with the
// degradation chain), validate the series against it, then price and
// render the answer around the table's pre-rendered coefficient bytes.
// The unary endpoint renders with indent set, the stream endpoint as one
// compact NDJSON line. A failure comes back as a requestError carrying
// the status and message of the API's answer, and a hot-shape exact hit
// allocates nothing.
func (s *Server) estimate(body []byte, sc *estScratch, indent bool) ([]byte, *requestError) {
	start := time.Now()
	req, ok := parseEstimateFast(body, sc)
	if !ok {
		var rerr *requestError
		if req, rerr = decodeEstimateJSON(body); rerr != nil {
			return nil, rerr
		}
	}
	t, fallback, rerr := s.lookupModel(&req.Model)
	if rerr != nil {
		return nil, rerr
	}
	if rerr := req.validate(t.InputBits); rerr != nil {
		return nil, rerr
	}
	cycles := len(req.Hd)
	if len(req.Words) > 0 {
		cycles = len(req.Words) - 1
	}
	sc.out = appendEstimate(sc.out[:0], t, &req, cycles, fallback, indent)
	s.met.estCycles.Add(int64(cycles))
	// Traffic counts against the requested key: demand for a model is what
	// the refinement loop budgets for, even while a fallback answers it.
	// The interned module keeps the probe a plain map lookup for hot-shape
	// bodies, and the sharded counters take atomic adds only. Model returns
	// nil past the cap, which the record calls tolerate.
	mp := s.tel.Profiler().Model(telemetry.Key{
		Module: req.Model.Module, Width: req.Model.Width, Seed: req.Model.Seed,
	}, t.InputBits+1)
	if mp != nil {
		if len(req.Words) > 0 {
			// Validation guarantees every word fits the m-bit mask, so the
			// XOR popcount is exactly the per-cycle Hd.
			for i := 1; i < len(req.Words); i++ {
				mp.RecordClass(sc.shard, bits.OnesCount64(req.Words[i-1]^req.Words[i]))
			}
		} else {
			for _, hd := range req.Hd {
				mp.RecordClass(sc.shard, hd)
			}
		}
		mp.RecordRequest(sc.shard, cycles, time.Since(start).Seconds())
	}
	return sc.out, nil
}

// validate checks the request's series against an m-input model: exactly
// one of hd and words, every class, stable-zero count and word in range,
// and the batch within maxBatchCycles. Stable zeros are ignored in words
// mode.
func (r *estimateRequest) validate(m int) *requestError {
	switch {
	case len(r.Words) > 0 && len(r.Hd) > 0:
		return badRequest("pass either hd or words, not both")
	case len(r.Words) > 0:
		if len(r.Words) < 2 {
			return badRequest("words mode needs >= 2 vectors")
		}
		if len(r.Words) > maxBatchCycles {
			return badRequest("batch exceeds %d vectors", maxBatchCycles)
		}
		if m > 64 {
			return badRequest("words mode supports <= 64 input bits, model has %d; use hd mode", m)
		}
		for i, v := range r.Words {
			if m < 64 && v>>uint(m) != 0 {
				return badRequest("word %d (%#x) does not fit the model's %d input bits", i, v, m)
			}
		}
	case len(r.Hd) > 0:
		if len(r.Hd) > maxBatchCycles {
			return badRequest("batch exceeds %d cycles", maxBatchCycles)
		}
		for i, hd := range r.Hd {
			if hd < 0 || hd > m {
				return badRequest("hd[%d] = %d outside [0, %d]", i, hd, m)
			}
		}
		if len(r.StableZeros) == 0 {
			return nil
		}
		if len(r.StableZeros) != len(r.Hd) {
			return badRequest("stable_zeros length %d != hd length %d", len(r.StableZeros), len(r.Hd))
		}
		for i, z := range r.StableZeros {
			if z < 0 || z > m-r.Hd[i] {
				return badRequest("stable_zeros[%d] = %d outside [0, %d] for hd %d", i, z, m-r.Hd[i], r.Hd[i])
			}
		}
	default:
		return badRequest("pass hd classes or a words vector stream")
	}
	return nil
}

// appendEstimate prices a validated request of cycles cycles against t
// and renders its answer: the head, the table's pre-rendered coefficient
// bytes for every cycle, then total, mean and, for a fallback answer, the
// rung that gave it.
func appendEstimate(out []byte, t *lut.Table, req *estimateRequest, cycles int, fallback string, indent bool) []byte {
	enhanced := (len(req.Words) > 0 || len(req.StableZeros) > 0) && t.HasEnhanced()
	out = appendEstimateHead(out, req.Model.Module, req.Model.Width, req.Model.Seed, cycles, enhanced, indent)
	sep := estimateSep(indent)
	var total float64
	switch {
	case len(req.Words) > 0:
		out, total = t.AppendWords(out, sep, req.Words)
	case len(req.StableZeros) > 0:
		out, total = t.AppendEnhanced(out, sep, req.Hd, req.StableZeros)
	default:
		out, total = t.AppendBasic(out, sep, req.Hd)
	}
	return appendEstimateTail(out, cycles, total, total/float64(cycles), fallback, indent)
}

// appendKey appends a JSON object key and its colon, with the space
// json.Encoder inserts in indented mode.
func appendKey(out []byte, name string, indent bool) []byte {
	out = append(out, '"')
	out = append(out, name...)
	if indent {
		return append(out, `": `...)
	}
	return append(out, `":`...)
}

// fieldSep separates two fields of a rendered response object.
func fieldSep(indent bool) string {
	if indent {
		return ",\n  "
	}
	return ","
}

// estimateSep separates two entries of a rendered estimates array.
func estimateSep(indent bool) string {
	if indent {
		return ",\n    "
	}
	return ","
}

// appendEstimateHead and appendEstimateTail render an estimate answer —
// key, cycles, enhanced, estimates, total, mean, then degraded and
// fallback only for a fallback answer — around a caller-rendered estimates
// array of cycles entries separated by estimateSep. The head ends where
// the first entry starts; the tail closes the array and adds the
// remaining fields. With indent set the output is the layout of
// writeJSON's json.Encoder with SetIndent("", "  "), trailing newline
// included, so estimate and error answers share one style on the wire;
// without it the result is one compact line for the NDJSON stream.
func appendEstimateHead(out []byte, module string, width int, seed int64,
	cycles int, enhanced, indent bool) []byte {
	if indent {
		out = append(out, "{\n  "...)
	} else {
		out = append(out, '{')
	}
	sep := fieldSep(indent)
	out = appendKey(out, "key", indent)
	out = append(out, '"')
	out = append(out, module...)
	out = append(out, "/w"...)
	out = strconv.AppendInt(out, int64(width), 10)
	out = append(out, "/s"...)
	out = strconv.AppendInt(out, seed, 10)
	out = append(out, '"')
	out = append(out, sep...)
	out = appendKey(out, "cycles", indent)
	out = strconv.AppendInt(out, int64(cycles), 10)
	out = append(out, sep...)
	out = appendKey(out, "enhanced", indent)
	out = strconv.AppendBool(out, enhanced)
	out = append(out, sep...)
	out = appendKey(out, "estimates", indent)
	out = append(out, '[')
	if indent && cycles > 0 {
		out = append(out, "\n    "...)
	}
	return out
}

func appendEstimateTail(out []byte, cycles int, total, mean float64, fallback string, indent bool) []byte {
	if indent && cycles > 0 {
		out = append(out, "\n  "...)
	}
	out = append(out, ']')
	sep := fieldSep(indent)
	out = append(out, sep...)
	out = appendKey(out, "total", indent)
	out = lut.AppendJSONFloat(out, total)
	out = append(out, sep...)
	out = appendKey(out, "mean", indent)
	out = lut.AppendJSONFloat(out, mean)
	if fallback != "" {
		out = append(out, sep...)
		out = appendKey(out, "degraded", indent)
		out = append(out, "true"...)
		out = append(out, sep...)
		out = appendKey(out, "fallback", indent)
		out = append(out, '"')
		out = append(out, fallback...)
		out = append(out, '"')
	}
	if indent {
		out = append(out, "\n}\n"...)
	} else {
		out = append(out, '}')
	}
	return out
}
