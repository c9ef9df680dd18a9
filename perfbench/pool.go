package main

// pool.go generates, from the run's pool seed, the request bodies the
// serving runs send, each with the answer the server must give. The
// answers come from the same specs characterized in-process: lut.Table
// totals for estimates and Model.AvgFromDist of the hddist closed form
// for stats queries.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"

	"hdpower/internal/core"
	"hdpower/internal/hddist"
	"hdpower/internal/lut"
	"hdpower/internal/stats"
	"hdpower/internal/telemetry"
)

// Series shapes of one estimate line.
const (
	shapeHd    = iota // "hd" alone
	shapeWords        // "words": the server derives Hd and stable zeros
	shapeZeros        // "hd" plus "stable_zeros"
	numShapes
)

const (
	unaryCycles  = 16  // cycles per unary estimate request
	unaryPool    = 256 // distinct unary bodies
	streamCycles = 256 // cycles per stream line
	// streamLines keeps a batch's answer under the stream handler's 64 KiB
	// write buffer. A larger answer flushes before the body is read, and
	// net/http then discards the unread rest of the body.
	streamLines   = 12 // lines per stream request
	streamPool    = 16 // distinct stream bodies
	statsProfiles = 8  // distinct word-statistics profiles per model
)

// served is one model the server builds, as characterized in-process.
type served struct {
	spec  spec
	model *core.Model
	table *lut.Table
	key   telemetry.Key
}

func servedModels(specs []spec, models []*core.Model) ([]served, error) {
	out := make([]served, len(specs))
	for i, s := range specs {
		t, err := lut.New(models[i])
		if err != nil {
			return nil, err
		}
		out[i] = served{spec: s, model: models[i], table: t,
			key: telemetry.Key{Module: s.module, Width: s.width, Seed: s.seed}}
	}
	return out, nil
}

// line is one estimate request against a served model: its decoded
// series and the total the server must answer.
type line struct {
	model  int
	shape  int
	legacy bool // carries the full build spec, which the fast parser refuses
	hd     []int
	zeros  []int
	words  []uint64
	want   float64
}

func (l *line) cycles() int {
	if l.shape == shapeWords {
		return len(l.words) - 1
	}
	return len(l.hd)
}

// query is one closed-form /v1/estimate/stats request.
type query struct {
	model        int
	ws           stats.WordStats
	width, ports int
	want         float64
}

// body is one pre-rendered request.
type body struct {
	path  string
	data  []byte
	lines []line // one for a unary estimate, streamLines for a stream batch
	query *query // stats requests only
}

// items is how many estimates the request answers.
func (b *body) items() int {
	if b.query != nil {
		return 1
	}
	return len(b.lines)
}

// pool is one workload's request mix.
type pool struct {
	bodies []body
	// queries are the stats profiles of the served models. The unary mix
	// sends them; serve-stream sends none, and its ledger re-times them
	// off its request path.
	queries []query
}

// newPool builds the mix of mode. unary: per 8 bodies, 6 in the fast
// parser's hot shapes (hd, words, hd plus stable_zeros in equal shares),
// 1 carrying the full build spec, which only the legacy decoder accepts,
// and 1 stats query. stream: NDJSON batches of hot-shape lines.
func newPool(mode string, models []served, seed int64) (*pool, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &pool{}
	for mi := range models {
		for k := 0; k < statsProfiles; k++ {
			q, err := newQuery(rng, mi, models[mi])
			if err != nil {
				return nil, err
			}
			p.queries = append(p.queries, q)
		}
	}
	switch mode {
	case "unary":
		for i := 0; i < unaryPool; i++ {
			mi := (i / 8) % len(models)
			var b body
			switch k := i % 8; {
			case k < 6:
				b = unaryBody(newLine(rng, models, mi, k%numShapes, unaryCycles, false), models)
			case k == 6:
				b = unaryBody(newLine(rng, models, mi, (i/8)%numShapes, unaryCycles, true), models)
			default:
				q := &p.queries[mi*statsProfiles+rng.Intn(statsProfiles)]
				b = statsBody(q, models[mi].spec)
			}
			p.bodies = append(p.bodies, b)
		}
	case "stream":
		for i := 0; i < streamPool; i++ {
			b := body{path: "/v1/estimate/stream"}
			for j := 0; j < streamLines; j++ {
				ln := newLine(rng, models, (j/numShapes)%len(models), j%numShapes, streamCycles, false)
				b.data = appendLine(b.data, &ln, models[ln.model].spec)
				b.data = append(b.data, '\n')
				b.lines = append(b.lines, ln)
			}
			p.bodies = append(p.bodies, b)
		}
	default:
		return nil, fmt.Errorf("unknown request mix %q", mode)
	}
	return p, nil
}

func wordMask(m int) uint64 {
	if m >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(m) - 1
}

func newLine(rng *rand.Rand, models []served, mi, shape, cycles int, legacy bool) line {
	t := models[mi].table
	m := t.InputBits
	ln := line{model: mi, shape: shape, legacy: legacy}
	if shape == shapeWords {
		ln.words = make([]uint64, cycles+1)
		for i := range ln.words {
			ln.words[i] = rng.Uint64() & wordMask(m)
		}
	} else {
		ln.hd = make([]int, cycles)
		for i := range ln.hd {
			ln.hd[i] = rng.Intn(m + 1)
		}
		if shape == shapeZeros {
			ln.zeros = make([]int, cycles)
			for i := range ln.zeros {
				ln.zeros[i] = rng.Intn(m - ln.hd[i] + 1)
			}
		}
	}
	ln.want = estimate(t, &ln, make([]float64, ln.cycles()))
	return ln
}

// estimate prices a line with the lut.Table calls serve's fast path makes,
// in its order, so the total is bit-identical to the served one.
func estimate(t *lut.Table, l *line, dst []float64) float64 {
	switch l.shape {
	case shapeHd:
		return t.EstimateBasicInto(dst[:len(l.hd)], l.hd)
	case shapeZeros:
		return t.EstimateEnhancedInto(dst[:len(l.hd)], l.hd, l.zeros)
	}
	mask := wordMask(t.InputBits)
	enhanced := t.HasEnhanced()
	var total float64
	for i := 1; i < len(l.words); i++ {
		prev, cur := l.words[i-1], l.words[i]
		hd := bits.OnesCount64(prev ^ cur)
		var q float64
		if enhanced {
			q = t.PEnhanced(hd, bits.OnesCount64(^(prev|cur)&mask))
		} else {
			q = t.P(hd)
		}
		dst[i-1] = q
		total += q
	}
	return total
}

// newQuery draws one word-statistics profile for model mi and computes
// its answer the way the stats endpoint does: the per-port closed form
// convolved once per extra port, integrated by the fitted model.
func newQuery(rng *rand.Rand, mi int, sv served) (query, error) {
	w := sv.spec.width
	half := float64(int64(1) << uint(w-1))
	q := query{
		model: mi,
		ws: stats.WordStats{
			N:    1024,
			Mean: math.Round((rng.Float64() - 0.5) * half),
			Std:  math.Round(half/16 + rng.Float64()*half/2),
			Rho:  math.Round(rng.Float64()*180-90) / 100,
		},
		width: w,
		ports: sv.model.InputBits / w,
	}
	port := hddist.FromWordStats(q.ws, w)
	dist := port
	for p := 1; p < q.ports; p++ {
		dist = hddist.Convolve(dist, port)
	}
	var err error
	q.want, err = sv.model.AvgFromDist(dist)
	return q, err
}

func appendModel(b []byte, s spec, legacy bool) []byte {
	b = fmt.Appendf(b, `{"model":{"module":%q,"width":%d,"seed":%d`, s.module, s.width, s.seed)
	if legacy {
		b = fmt.Appendf(b, `,"patterns":%d,"enhanced":%t`, buildPatterns, s.enhanced)
	}
	return append(b, '}')
}

func appendInts(b []byte, key string, vals []int) []byte {
	b = append(b, `,"`...)
	b = append(b, key...)
	b = append(b, `":[`...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

func appendLine(b []byte, l *line, s spec) []byte {
	b = appendModel(b, s, l.legacy)
	switch l.shape {
	case shapeWords:
		b = append(b, `,"words":[`...)
		for i, w := range l.words {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, w, 10)
		}
		b = append(b, ']')
	case shapeZeros:
		b = appendInts(b, "hd", l.hd)
		b = appendInts(b, "stable_zeros", l.zeros)
	default:
		b = appendInts(b, "hd", l.hd)
	}
	return append(b, '}')
}

func unaryBody(l line, models []served) body {
	return body{path: "/v1/estimate", data: appendLine(nil, &l, models[l.model].spec), lines: []line{l}}
}

func statsBody(q *query, s spec) body {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	data := appendModel(nil, s, false)
	data = fmt.Appendf(data, `,"mean":%s,"std":%s,"rho":%s,"width":%d}`,
		f(q.ws.Mean), f(q.ws.Std), f(q.ws.Rho), q.width)
	return body{path: "/v1/estimate/stats", data: data, query: q}
}

// verify checks a response against the body's answers: every estimate
// total, cycle count and stats average must match exactly, and no line
// may carry an error or come from a fallback model.
func (b *body) verify(resp []byte) bool {
	if b.query != nil {
		var v struct {
			AvgCharge float64 `json:"avg_charge"`
			Degraded  bool    `json:"degraded"`
		}
		return json.Unmarshal(resp, &v) == nil && !v.Degraded && v.AvgCharge == b.query.want
	}
	if b.path == "/v1/estimate" {
		return checkEstimate(resp, &b.lines[0])
	}
	rest := resp
	for i := range b.lines {
		end := bytes.IndexByte(rest, '\n')
		if end < 0 || !checkEstimate(rest[:end], &b.lines[i]) {
			return false
		}
		rest = rest[end+1:]
	}
	return len(rest) == 0
}

func checkEstimate(resp []byte, l *line) bool {
	var v struct {
		Error    string  `json:"error"`
		Cycles   int     `json:"cycles"`
		Total    float64 `json:"total"`
		Degraded bool    `json:"degraded"`
	}
	return json.Unmarshal(resp, &v) == nil && v.Error == "" && !v.Degraded &&
		v.Cycles == l.cycles() && v.Total == l.want
}
