// Package faultpoint is a fault-injection registry for robustness tests
// and chaos runs. Production code plants named fault points at the places
// where the real world fails — a shard merge, a model-file write, a build
// dispatch — and tests (or a chaos CI job) arm them with failure modes:
//
//	faultpoint.Arm("core.merge=error:after=3")          // 3rd merge fails
//	faultpoint.Arm("core.shard=slow:delay=200us:p=0.05") // 5% of shards lag
//	HDPOWER_FAULTPOINTS='atomicio.write=error' go test ./...
//
// A spec is a semicolon- or comma-separated list of `name=mode[:opt...]`
// entries. Modes:
//
//	error        Hit returns an *InjectedError (wraps ErrInjected)
//	slow         Hit and Delay sleep for `delay` and return nil
//
// Options (colon-separated, any order after the mode):
//
//	after=N      trigger only on the Nth hit of the point (1-based)
//	p=F          trigger each hit with probability F in (0, 1]
//	delay=DUR    sleep duration for slow mode (default 1ms)
//
// When nothing is armed — the normal production state — Hit and Delay cost
// one atomic load and return immediately, so fault points are free to
// leave in hot paths. The HDPOWER_FAULTPOINTS environment variable is
// parsed once at init, which is how the chaos CI job arms an entire test
// binary without code changes.
package faultpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable parsed at init to arm fault points
// process-wide (chaos runs).
const EnvVar = "HDPOWER_FAULTPOINTS"

// ErrInjected is the sentinel every injected failure wraps; callers and
// tests match it with errors.Is.
var ErrInjected = errors.New("injected fault")

// InjectedError is the error returned by a triggered error-mode fault
// point.
type InjectedError struct {
	// Point is the fault point name that fired.
	Point string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultpoint: %s: injected fault", e.Point)
}

// Unwrap makes errors.Is(err, ErrInjected) hold.
//
//hdlint:allow deadexport errors.Is and errors.As call it through the Unwrap interface
func (e *InjectedError) Unwrap() error { return ErrInjected }

// Mode names accepted by Arm.
const (
	modeError = "error"
	modeSlow  = "slow"
)

// point is one armed fault point.
type point struct {
	name  string
	mode  string
	after int64
	prob  float64
	delay time.Duration
	hits  atomic.Int64
}

var (
	armed  atomic.Bool
	mu     sync.RWMutex
	points map[string]*point
	rng    = rand.New(rand.NewSource(1)) // guarded by mu (write lock)
)

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := Arm(spec); err != nil {
			fmt.Fprintf(os.Stderr, "faultpoint: ignoring %s: %v\n", EnvVar, err)
		}
	}
}

// Arm parses a spec string and adds its fault points to the registry,
// replacing same-named points. See the package comment for the grammar.
func Arm(spec string) error {
	parsed, err := parseSpec(spec)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*point)
	}
	for _, p := range parsed {
		points[p.name] = p
	}
	armed.Store(len(points) > 0)
	return nil
}

// Disarm removes every armed fault point, restoring the zero-cost state.
//
//hdlint:allow deadexport test support: the chaos tests of core, serve, bitsim, atomicio, fleet and cmd/hdpower reset the registry with it
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	armed.Store(false)
}

// Seed reseeds the probability sampler, so chaos runs can be replayed.
//
//hdlint:allow deadexport test support: internal/fleet chaos tests replay their fault draws with it
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

// Hits returns how many times the named point has been hit since it was
// armed (0 when not armed); tests use it to assert a site is exercised.
//
//hdlint:allow deadexport test support: the bitsim and fleet chaos tests assert their sites fire with it
func Hits(name string) int64 {
	mu.RLock()
	defer mu.RUnlock()
	if p, ok := points[name]; ok {
		return p.hits.Load()
	}
	return 0
}

// Hit records a hit on the named fault point and returns the injected
// error if the point is armed in error mode and triggers. Slow-mode points
// sleep and return nil, so a Hit site doubles as a Delay site. Call it at
// places whose failure the surrounding code must tolerate.
func Hit(name string) error {
	if !armed.Load() {
		return nil
	}
	return hitSlow(name, true)
}

// Delay is Hit for sites that have no error path: slow-mode points sleep,
// error-mode points count the hit but inject nothing.
func Delay(name string) {
	if !armed.Load() {
		return
	}
	_ = hitSlow(name, false)
}

func hitSlow(name string, allowError bool) error {
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	n := p.hits.Add(1)
	if p.after > 0 && n != p.after {
		return nil
	}
	if p.prob > 0 && !sample(p.prob) {
		return nil
	}
	switch p.mode {
	case modeSlow:
		time.Sleep(p.delay)
		return nil
	case modeError:
		if allowError {
			return &InjectedError{Point: name}
		}
		return nil
	}
	return nil
}

func sample(prob float64) bool {
	mu.Lock()
	defer mu.Unlock()
	return rng.Float64() < prob
}

// parseSpec parses the full arming string into points.
func parseSpec(spec string) ([]*point, error) {
	split := func(r rune) bool { return r == ';' || r == ',' }
	var out []*point
	for _, entry := range strings.FieldsFunc(spec, split) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		p, err := parseEntry(entry)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultpoint: empty spec %q", spec)
	}
	return out, nil
}

func parseEntry(entry string) (*point, error) {
	name, rest, ok := strings.Cut(entry, "=")
	if !ok || name == "" {
		return nil, fmt.Errorf("faultpoint: entry %q is not name=mode", entry)
	}
	parts := strings.Split(rest, ":")
	p := &point{name: name, mode: parts[0], delay: time.Millisecond}
	switch p.mode {
	case modeError, modeSlow:
	default:
		return nil, fmt.Errorf("faultpoint: %s: unknown mode %q (want error or slow)", name, parts[0])
	}
	for _, opt := range parts[1:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fmt.Errorf("faultpoint: %s: option %q is not key=value", name, opt)
		}
		switch k {
		case "after":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("faultpoint: %s: after=%q is not a positive integer", name, v)
			}
			p.after = n
		case "p":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 1 {
				return nil, fmt.Errorf("faultpoint: %s: p=%q is not in (0, 1]", name, v)
			}
			p.prob = f
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultpoint: %s: delay=%q is not a duration", name, v)
			}
			p.delay = d
		default:
			return nil, fmt.Errorf("faultpoint: %s: unknown option %q", name, k)
		}
	}
	return p, nil
}
