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
	"encoding/binary"
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
// name parsed as request-body bytes can key the ready set without
// allocating (map[string]x lookups with a string([]byte) index compile to
// an allocation-free lookup; composite keys do not).
var moduleIntern = func() map[string]string {
	m := make(map[string]string)
	for _, name := range dwlib.Names() {
		m[name] = name
	}
	return m
}()

// estScratch is the pooled per-request working set of the estimator:
// request body, hand-parsed series, the rendered response and the
// request's per-class cycle counts.
// Steady-state requests allocate nothing; the pool warms to the live
// request concurrency.
type estScratch struct {
	body  []byte
	hd    []int
	zeros []int
	words []uint64
	out   []byte
	// classes counts the request's cycles per Hd class for the traffic
	// profiler, which takes them in one flush.
	classes [telemetry.MaxClasses]uint64
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
	v, end, _, ok := scanInt(p.b, p.i)
	if ok {
		p.i = end
	}
	return v, ok
}

// ones has a 1 in every byte; c*ones repeats byte c eight times.
const ones = 0x0101010101010101

// pow10 holds 10^k for every digit count k a chunk can add.
var pow10 = [9]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// load8 reads the eight bytes at b[i:] as one little-endian word, the
// byte at i lowest. Past the end of b it reads zero bytes, which are not
// digits, so a number that ends the body ends inside the word.
func load8(b []byte, i int) uint64 {
	if len(b)-i >= 8 {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var tail [8]byte
	copy(tail[:], b[i:])
	return binary.LittleEndian.Uint64(tail[:])
}

// digitRun counts the ASCII digits at the low end of x before its first
// other byte: 8 when every byte is a digit. Each byte's low seven bits
// plus 0x50 reach the byte's high bit exactly when they are at least
// '0', and plus 0x46 exactly when they are above '9'; neither sum
// carries into the next byte. A byte is a digit when its own high bit is
// clear, the first sum's is set and the second's clear.
func digitRun(x uint64) uint {
	const high = 0x80 * ones
	low := x &^ high
	other := (x | ^(low + 0x50*ones) | (low + 0x46*ones)) & high
	return uint(bits.TrailingZeros64(other)) >> 3
}

// eightDigits is the value of the eight ASCII digits in x, the most
// significant in the lowest byte, in three multiply-shift steps: each
// step merges neighbouring 1-, 2- and then 4-digit groups into the low
// half of their pair.
func eightDigits(x uint64) uint64 {
	x = (x & (0x0F * ones)) * (1 + 10<<8) >> 8
	x = (x & 0x00FF00FF00FF00FF) * (1 + 100<<16) >> 16
	return (x & 0x0000FFFF0000FFFF) * (1 + 10000<<32) >> 32
}

// lowDigits is the value of the n < 8 digits at the low end of x: shifted
// to the top of the word, they have zero bytes in front of them, which
// eightDigits reads as leading zeros.
func lowDigits(x uint64, n uint) uint64 { return eightDigits(x << (64 - 8*n)) }

// scanUint scans the unsigned integer literal at b[i:] eight bytes at a
// time. It returns the value, the index past its last digit and the byte
// there (0 at the end of b), so that an array takes the separator from
// the word it has already loaded. A number is at most three words, since
// 21 digits exceed MaxUint64, and only the third can overflow. It refuses
// an empty run, a leading zero JSON forbids, a fraction or exponent, and
// a value above MaxUint64.
func scanUint(b []byte, i int) (v uint64, end int, next byte, ok bool) {
	x := load8(b, i)
	n := digitRun(x)
	if n < 8 {
		next = byte(x >> (8 * n))
		if n == 0 || byte(x) == '0' && n > 1 || !numberEnd(next) {
			return 0, 0, 0, false
		}
		return lowDigits(x, n), i + int(n), next, true
	}
	if byte(x) == '0' {
		return 0, 0, 0, false
	}
	v = eightDigits(x)
	x = load8(b, i+8)
	if n = digitRun(x); n < 8 {
		next = byte(x >> (8 * n))
		if !numberEnd(next) {
			return 0, 0, 0, false
		}
		return v*pow10[n] + lowDigits(x, n), i + 8 + int(n), next, true
	}
	v = v*1e8 + eightDigits(x)
	x = load8(b, i+16)
	n = digitRun(x)
	next = byte(x >> (8 * n))
	if n > 4 || !numberEnd(next) {
		return 0, 0, 0, false
	}
	hi, lo := bits.Mul64(v, pow10[n])
	lo, carry := bits.Add64(lo, lowDigits(x, n), 0)
	if hi|carry != 0 {
		return 0, 0, 0, false
	}
	return lo, i + 16 + int(n), next, true
}

// scanInt scans an optionally signed integer literal at b[i:] as
// scanUint does, refusing magnitudes outside int64.
func scanInt(b []byte, i int) (v int64, end int, next byte, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	u, end, next, ok := scanUint(b, i)
	if neg {
		return -int64(u), end, next, ok && u <= 1<<63
	}
	return int64(u), end, next, ok && u <= math.MaxInt64
}

// numberEnd reports whether c may follow an integer: a fraction or an
// exponent would make the number a float.
func numberEnd(c byte) bool { return c != '.' && c|0x20 != 'e' }

// element consumes the ',' or ']' after an array element, with any
// whitespace around it, and reports whether another element follows.
func (p *jsParser) element() (more, ok bool) {
	p.ws()
	if p.eat(',') {
		p.ws()
		return true, true
	}
	return false, p.eat(']')
}

// intArray parses a JSON array of integers into dst (reusing its
// capacity) and returns the filled slice, whose contents mean nothing
// when the parse fails. While a ',' and a digit follow an element, the
// next element is scanned right away: no whitespace skip, no sign check.
func (p *jsParser) intArray(dst []int) ([]int, bool) {
	if !p.eat('[') {
		return dst, false
	}
	p.ws()
	if p.eat(']') {
		return dst, true
	}
	b := p.b
	for {
		v, end, next, ok := scanInt(b, p.i)
		if !ok || v > math.MaxInt32 || v < math.MinInt32 {
			return dst, false
		}
		dst = append(dst, int(v))
		for next == ',' && end+1 < len(b) && b[end+1]-'0' <= 9 {
			u, j, c, ok := scanUint(b, end+1)
			if !ok || u > math.MaxInt32 {
				return dst, false
			}
			dst = append(dst, int(u))
			end, next = j, c
		}
		p.i = end
		if more, ok := p.element(); !more {
			return dst, ok
		}
	}
}

// uintArray parses a JSON array of unsigned integers into dst, as
// intArray does.
func (p *jsParser) uintArray(dst []uint64) ([]uint64, bool) {
	if !p.eat('[') {
		return dst, false
	}
	p.ws()
	if p.eat(']') {
		return dst, true
	}
	b := p.b
	for {
		v, end, next, ok := scanUint(b, p.i)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		for next == ',' && end+1 < len(b) && b[end+1]-'0' <= 9 {
			if v, end, next, ok = scanUint(b, end+1); !ok {
				return dst, false
			}
			dst = append(dst, v)
		}
		p.i = end
		if more, ok := p.element(); !more {
			return dst, ok
		}
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
	key := req.Model.modelKey()
	t, fallback, rerr := s.lookupModel(&req.Model, key)
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
	// Traffic counts against the requested key, the one the ready set was
	// probed with: demand for a model is what the refinement loop budgets
	// for, even while a fallback answers it. The interned module keeps the
	// probe a plain map lookup for hot-shape bodies, and the sharded
	// counters take atomic adds only. Model returns nil past the cap, which
	// the record calls tolerate. A line's classes are counted in scratch
	// and flushed before its estimates, one add per class it hits.
	mp := s.tel.Profiler().Model(key, t.InputBits+1)
	if mp != nil {
		countClasses(&sc.classes, &req)
		mp.RecordClasses(sc.shard, &sc.classes)
		mp.RecordRequest(sc.shard, cycles, time.Since(start).Seconds())
	}
	return sc.out, nil
}

// countClasses counts a validated request's cycles per Hd class into
// counts, folding classes past the last counter into it as RecordClass
// does. Validation guarantees every word fits the model's m <= 64 bits,
// so the XOR popcount of two words is exactly their cycle's Hd.
func countClasses(counts *[telemetry.MaxClasses]uint64, req *estimateRequest) {
	clear(counts[:])
	if len(req.Words) > 0 {
		for i := 1; i < len(req.Words); i++ {
			counts[bits.OnesCount64(req.Words[i-1]^req.Words[i])]++
		}
		return
	}
	for _, hd := range req.Hd {
		counts[min(hd, telemetry.MaxClasses-1)]++
	}
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
	out = appendEstimateHead(out, req.Model.modelKey(), cycles, enhanced, indent)
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
func appendEstimateHead(out []byte, key telemetry.Key, cycles int, enhanced, indent bool) []byte {
	if indent {
		out = append(out, "{\n  "...)
	} else {
		out = append(out, '{')
	}
	sep := fieldSep(indent)
	out = appendKey(out, "key", indent)
	out = append(out, '"')
	out = key.Append(out)
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
