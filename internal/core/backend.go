package core

// backend.go abstracts the simulation engine characterization drives.
// The characterizer only ever needs one operation — simulate a batch of
// (u, v) transition pairs and report the charge each pair consumed — so
// that is the whole Backend interface. Two implementations exist: the
// event-driven power.Meter (the golden reference, with per-gate transport
// delays and exact glitch activity) and the bit-parallel internal/bitsim
// engine (64 pairs per machine word, unit-delay glitch approximation,
// an order of magnitude faster). Because the deterministic shard plan,
// ordered merge, checkpoints and bit-identical-resume guarantees live
// above this interface, they hold unchanged for every backend; switching
// backends changes the reference charges (and therefore the fitted
// coefficients), never the determinism contract.

import (
	"fmt"

	"hdpower/internal/bitsim"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
	"hdpower/internal/power"
)

// BackendKind selects the characterization simulation backend.
type BackendKind string

const (
	// BackendAuto (the zero value) keeps the caller's meter: existing
	// callers that hand Characterize an event-driven meter keep getting
	// event-driven reference charges, bit-identical to prior releases.
	BackendAuto BackendKind = ""
	// BackendEvent characterizes through the scalar event-driven engine:
	// per-gate transport delays, exact glitch counting. The golden
	// reference, and the slowest.
	BackendEvent BackendKind = "event"
	// BackendBitParallel characterizes through internal/bitsim: 64
	// patterns per machine word with unit-delay glitch approximation.
	// The fast default for bulk characterization.
	BackendBitParallel BackendKind = "bitparallel"
)

// ParseBackendKind validates a user-supplied backend name (CLI flags,
// serve configs). The empty string parses to BackendAuto.
func ParseBackendKind(s string) (BackendKind, error) {
	switch k := BackendKind(s); k {
	case BackendAuto, BackendEvent, BackendBitParallel:
		return k, nil
	default:
		return BackendAuto, fmt.Errorf("core: unknown backend %q (want %q or %q)",
			s, BackendEvent, BackendBitParallel)
	}
}

// Name resolves the kind to the concrete backend name recorded in
// checkpoints, manifests and metric labels; BackendAuto resolves to the
// event reference.
func (k BackendKind) Name() string {
	if k == BackendAuto {
		return string(BackendEvent)
	}
	return string(k)
}

// Backend is a simulation engine the characterizer can drive: it owns
// settled circuit state and prices transition pairs. Implementations are
// not safe for concurrent use; Clone returns an independent backend over
// the same immutable topology for use on another goroutine (the worker
// pool contract shared with power.Meter and sim.Simulator).
type Backend interface {
	// NumInputBits is the input vector width of the underlying module.
	NumInputBits() int
	// Charges simulates each pair (us[j], vs[j]) independently — settle
	// on u, switch to v — and writes the consumed charge into q[j].
	Charges(us, vs []logic.Word, q []float64)
	// Clone returns an independent backend for another goroutine.
	Clone() Backend
	// Name returns the stable backend name ("event", "bitparallel").
	Name() string
}

// meterBackend adapts the scalar power.Meter (event-driven or any other
// sim engine) to the batch interface. Pairs run in order through the
// meter exactly as the pre-Backend characterizer did, so models fitted
// through it are bit-identical to prior releases.
type meterBackend struct {
	m *power.Meter
}

func (b meterBackend) NumInputBits() int { return b.m.NumInputBits() }

func (b meterBackend) Charges(us, vs []logic.Word, q []float64) {
	for j := range us {
		b.m.Reset(us[j])
		q[j] = b.m.Cycle(vs[j])
	}
}

func (b meterBackend) Clone() Backend { return meterBackend{m: b.m.Clone()} }

func (b meterBackend) Name() string { return string(BackendEvent) }

// bitsimBackend adapts the 64-lane bit-parallel meter: shard-sized pair
// batches are chunked into full machine words. The shard size (128) is a
// multiple of bitsim.Lanes, so full shards split into exactly two full
// batches with no ragged remainder on the hot path.
type bitsimBackend struct {
	m *bitsim.Meter
}

// NewBitParallelBackend builds a bit-parallel characterization backend
// over the netlist, with unit-delay glitch approximation.
func NewBitParallelBackend(nl *netlist.Netlist) (Backend, error) {
	m, err := bitsim.New(nl, bitsim.UnitDelay)
	if err != nil {
		return nil, err
	}
	return bitsimBackend{m: m}, nil
}

func (b bitsimBackend) NumInputBits() int { return b.m.NumInputBits() }

func (b bitsimBackend) Charges(us, vs []logic.Word, q []float64) {
	for off := 0; off < len(us); off += bitsim.Lanes {
		end := off + bitsim.Lanes
		if end > len(us) {
			end = len(us)
		}
		b.m.CycleBatch(us[off:end], vs[off:end], q[off:end])
	}
}

func (b bitsimBackend) Clone() Backend { return bitsimBackend{m: b.m.Clone()} }

func (b bitsimBackend) Name() string { return string(BackendBitParallel) }

// resolveBackend turns the Backend option plus the caller's meter into a
// concrete engine. BackendAuto and BackendEvent wrap the meter itself —
// whatever sim engine it was built with — so the caller's engine choice
// stays authoritative; BackendBitParallel builds a bit-parallel meter
// over the same netlist.
func (o *CharacterizeOptions) resolveBackend(meter *power.Meter) (Backend, error) {
	switch o.Backend {
	case BackendAuto, BackendEvent:
		return meterBackend{m: meter}, nil
	case BackendBitParallel:
		return NewBitParallelBackend(meter.Simulator().Netlist())
	default:
		return nil, fmt.Errorf("core: unknown backend %q (want %q or %q)",
			o.Backend, BackendEvent, BackendBitParallel)
	}
}
