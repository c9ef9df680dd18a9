package serve

// fastpath.go is the production-QPS estimate data plane: a hand-rolled
// decoder/encoder for the hot estimate structs and a lock-free table
// lookup, so a steady-state /v1/estimate (and each /v1/estimate/stream
// line) runs with zero heap allocations — no encoding/json reflection,
// no per-request model-cache lock.
//
// The paper's economics only pay off if estimation stays a table lookup
// all the way to the wire: fitted models are flattened into lut.Table
// coefficient arrays at build-complete time and published behind an
// atomic pointer (RCU — see models.go), request scratch comes from
// sync.Pools, and the JSON for the hot shapes is parsed by hand. Every
// coefficient's wire text was rendered once, when its table was built,
// so a response is this file's framing around bytes the table copies
// out. Anything unusual — escaped strings, unknown or repeated fields,
// non-integer or zero-padded numbers, uncached models — falls back to
// the legacy encoding/json path, which stays bit-identical in behavior;
// the fast path only ever serves requests it can answer exactly as the
// slow path would.

import (
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

// Values of the hdserve_estimate_served_total path label.
const (
	servedLUT    = "lut"
	servedLegacy = "legacy"
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

// estScratch is the pooled per-request working set of the fast path:
// request body, decoded series, and the rendered response. Steady-state
// requests allocate nothing; the pool warms to the live request
// concurrency.
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

// fastReq is the decoded hot shape of an estimate request. Slices alias
// the owning scratch; module aliases the request body.
type fastReq struct {
	module   []byte
	width    int
	seed     int64
	hasModel bool
	hd       []int
	zeros    []int
	words    []uint64
}

// cycles is the number of estimates the request's series prices.
func (r *fastReq) cycles() int {
	if len(r.words) > 0 {
		return len(r.words) - 1
	}
	return len(r.hd)
}

// jsParser is a minimal JSON scanner for the hot request shapes. It
// accepts a strict subset of JSON — no escaped strings, integer-only
// numbers without leading zeros, known fields at most once each — and
// reports failure on anything else, at which point the caller falls back
// to encoding/json.
type jsParser struct {
	b    []byte
	i    int
	seen uint8 // key bits of the fields parsed so far
}

// Key bits of jsParser.seen. encoding/json keeps the last of a repeated
// key (and replaces an array rather than extending it), so the fast
// parser leaves every repeat to it.
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
			return nil, false // escapes take the slow path
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
// exponent fails the fast parse (the slow path reports the type error).
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
// accepted; patterns/enhanced/z_clusters (or anything unknown) fall back
// to the slow path, which owns their validation semantics.
func (p *jsParser) model(req *fastReq) bool {
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
			req.module = s
		case "width":
			v, ok := p.int64()
			if !ok || v < 0 || v > math.MaxInt32 || !p.first(keyWidth) {
				return false
			}
			req.width = int(v)
		case "seed":
			v, ok := p.int64()
			if !ok || !p.first(keySeed) {
				return false
			}
			req.seed = v
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

// parseEstimateFast decodes one estimate request in the hot shape. ok is
// false when the body needs the slow path; the scratch slices are
// (re)used as backing storage either way.
func parseEstimateFast(body []byte, sc *estScratch) (fastReq, bool) {
	req := fastReq{}
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
			if !p.first(keyModel) || !p.model(&req) {
				return req, false
			}
			req.hasModel = true
		case "hd":
			if !p.first(keyHd) {
				return req, false
			}
			sc.hd, ok = p.intArray(sc.hd)
			if !ok {
				return req, false
			}
			req.hd = sc.hd
		case "stable_zeros":
			if !p.first(keyZeros) {
				return req, false
			}
			sc.zeros, ok = p.intArray(sc.zeros)
			if !ok {
				return req, false
			}
			req.zeros = sc.zeros
		case "words":
			if !p.first(keyWords) {
				return req, false
			}
			sc.words, ok = p.uintArray(sc.words)
			if !ok {
				return req, false
			}
			req.words = sc.words
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

// estimateFastBytes serves one estimate request body entirely on the fast
// path: hand-rolled parse, atomic LUT snapshot lookup, then the response
// rendered around the table's pre-rendered coefficient bytes into sc.out.
// ok is false — with nothing written and no metrics counted — whenever
// any aspect of the request leaves the hot shape (parse failure, unknown
// module, model not in the snapshot, invalid series); the caller then
// re-runs the bytes through the legacy path, which owns all error
// semantics. The unary endpoint renders with indent=true to stay
// byte-identical to the legacy json.Encoder output; the stream endpoint
// renders compact NDJSON lines.
func (s *Server) estimateFastBytes(body []byte, sc *estScratch, indent bool) ([]byte, bool) {
	start := time.Now()
	req, ok := parseEstimateFast(body, sc)
	if !ok || !req.hasModel {
		return nil, false
	}
	module, ok := moduleIntern[string(req.module)]
	if !ok {
		return nil, false
	}
	t := s.cache.table(module, req.width, req.seed)
	if t == nil || !req.valid(t.InputBits) {
		return nil, false
	}
	sc.out = appendFastResponse(sc.out[:0], t, module, &req, indent)
	// Same accounting as the legacy path: an exact snapshot hit is a model
	// cache hit, and cycle volume counts per estimate regardless of path.
	s.met.cacheHits.Inc()
	s.met.estCycles.Add(int64(req.cycles()))
	s.met.servedLUT.Inc()
	// Traffic profiling stays allocation-free: the interned module makes
	// the Key probe a plain map lookup, and the sharded counters take
	// atomic adds only. Model returns nil past the cap, which the record
	// calls tolerate.
	mp := s.tel.Profiler().Model(
		telemetry.Key{Module: module, Width: req.width, Seed: req.seed}, t.InputBits+1)
	if mp != nil {
		if len(req.words) > 0 {
			// Validation guarantees every word fits the m-bit mask, so the
			// XOR popcount is exactly the per-cycle Hd.
			for i := 1; i < len(req.words); i++ {
				mp.RecordClass(sc.shard, bits.OnesCount64(req.words[i-1]^req.words[i]))
			}
		} else {
			for _, hd := range req.hd {
				mp.RecordClass(sc.shard, hd)
			}
		}
		mp.RecordRequest(sc.shard, req.cycles(), time.Since(start).Seconds())
	}
	return sc.out, true
}

// valid reports whether the legacy path would price the request's series
// against an m-input model without error: exactly one of hd and words,
// every class, stable-zero count and word in range, and the batch within
// maxBatchCycles.
func (r *fastReq) valid(m int) bool {
	switch {
	case len(r.words) > 0 && len(r.hd) > 0:
		return false
	case len(r.words) > 0:
		if len(r.words) < 2 || len(r.words) > maxBatchCycles || m > 64 {
			return false
		}
		for _, v := range r.words {
			if m < 64 && v>>uint(m) != 0 {
				return false
			}
		}
		return true
	case len(r.hd) > 0:
		if len(r.hd) > maxBatchCycles {
			return false
		}
		for _, hd := range r.hd {
			if hd < 0 || hd > m {
				return false
			}
		}
		if len(r.zeros) == 0 {
			return true
		}
		if len(r.zeros) != len(r.hd) {
			return false
		}
		for i, z := range r.zeros {
			if z < 0 || z > m-r.hd[i] {
				return false
			}
		}
		return true
	}
	return false
}

// appendFastResponse prices a request that passed valid against t and
// renders its response: the head, the table's pre-rendered coefficient
// bytes for every cycle, then total and mean.
func appendFastResponse(out []byte, t *lut.Table, module string, req *fastReq, indent bool) []byte {
	cycles := req.cycles()
	enhanced := (len(req.words) > 0 || len(req.zeros) > 0) && t.HasEnhanced()
	out = appendEstimateHead(out, module, req.width, req.seed, cycles, enhanced, indent)
	sep := estimateSep(indent)
	var total float64
	switch {
	case len(req.words) > 0:
		out, total = t.AppendWords(out, sep, req.words)
	case len(req.zeros) > 0:
		out, total = t.AppendEnhanced(out, sep, req.hd, req.zeros)
	default:
		out, total = t.AppendBasic(out, sep, req.hd)
	}
	return appendEstimateTail(out, cycles, total, total/float64(cycles), "", indent)
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

// appendEstimateHead and appendEstimateTail render the estimateResponse
// hot shape (same fields, same order as the struct's JSON tags) without
// reflection, around a caller-rendered estimates array of cycles entries
// separated by estimateSep. The head ends where the first entry starts;
// the tail closes the array and adds the remaining fields.
// degraded/fallback are emitted only when fallback is non-empty, matching
// the omitempty tags. With indent set the output is byte-identical to
// writeJSON's json.Encoder with SetIndent("", "  ") — including the
// trailing newline Encode appends — so fast-path and legacy unary
// responses are indistinguishable on the wire; without it the result is
// one compact line for the NDJSON stream.
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

// appendEstimateResponse renders a response whose estimates are already
// priced — the legacy stream line — as head, one float per estimate,
// tail.
func appendEstimateResponse(out []byte, module string, width int, seed int64,
	est []float64, enhanced bool, total, mean float64, fallback string, indent bool) []byte {
	out = appendEstimateHead(out, module, width, seed, len(est), enhanced, indent)
	sep := estimateSep(indent)
	for i, q := range est {
		if i > 0 {
			out = append(out, sep...)
		}
		out = lut.AppendJSONFloat(out, q)
	}
	return appendEstimateTail(out, len(est), total, mean, fallback, indent)
}
