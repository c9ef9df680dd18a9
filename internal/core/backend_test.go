package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdpower/internal/atomicio"
)

func TestParseBackendKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want BackendKind
	}{
		{"", BackendAuto},
		{"event", BackendEvent},
		{"bitparallel", BackendBitParallel},
	} {
		got, err := ParseBackendKind(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackendKind(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseBackendKind("warp-drive"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown backend name: got %v, want ErrUnknownBackend", err)
	}
	if BackendAuto.Name() != "event" || BackendBitParallel.Name() != "bitparallel" {
		t.Fatalf("backend names: auto=%q bitparallel=%q",
			BackendAuto.Name(), BackendBitParallel.Name())
	}
}

// TestBackendEventBitIdentical pins the refactor's compatibility contract:
// selecting BackendEvent explicitly (or leaving BackendAuto) routes pairs
// through the caller's meter in the exact legacy order, so the fitted
// model is byte-identical to a run that never heard of backends.
func TestBackendEventBitIdentical(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 640, Seed: 3, Enhanced: true, Workers: 2}
	auto, err := Characterize(meterFor(t, "ripple-adder", 8), "add", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Backend = BackendEvent
	event, err := Characterize(meterFor(t, "ripple-adder", 8), "add", opt)
	if err != nil {
		t.Fatal(err)
	}
	modelsIdentical(t, auto, event, "auto vs explicit event")
}

// TestCharacterizeBitParallelWorkerCountIndependent extends the
// determinism contract to the bit-parallel backend: the shard plan and
// ordered merge live above the Backend interface, so Workers must not
// change a single bit of the fitted model there either.
func TestCharacterizeBitParallelWorkerCountIndependent(t *testing.T) {
	opt := CharacterizeOptions{
		Patterns: 1200, Seed: 9, Enhanced: true, Workers: 1,
		Backend: BackendBitParallel,
	}
	ref, err := Characterize(meterFor(t, "csa-multiplier", 4), "csa", opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		opt.Workers = workers
		got, err := Characterize(meterFor(t, "csa-multiplier", 4), "csa", opt)
		if err != nil {
			t.Fatal(err)
		}
		modelsIdentical(t, ref, got, fmt.Sprintf("bitparallel workers=%d", workers))
	}
}

// TestCharacterizePortsBitParallel runs the port-resolved fit through the
// bit-parallel backend and checks worker-count invariance there too.
func TestCharacterizePortsBitParallel(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 900, Seed: 5, Workers: 1, Backend: BackendBitParallel}
	ref, err := CharacterizePorts(meterFor(t, "csa-multiplier", 4), "csa", 4, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 3
	got, err := CharacterizePorts(meterFor(t, "csa-multiplier", 4), "csa", 4, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ia := range ref.Coeffs {
		for ib := range ref.Coeffs[ia] {
			if ref.Coeffs[ia][ib] != got.Coeffs[ia][ib] {
				t.Fatalf("class (%d,%d): workers=3 coefficient differs", ia, ib)
			}
		}
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 128, Seed: 1, Backend: BackendKind("warp-drive")}
	if _, err := Characterize(meterFor(t, "ripple-adder", 4), "add", opt); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("want ErrUnknownBackend, got %v", err)
	}
	if _, err := CharacterizePorts(meterFor(t, "csa-multiplier", 4), "csa", 4, 4, opt); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("ports: want unknown-backend error, got %v", err)
	}
}

// TestCheckpointResumeBitParallel is the crash-safety contract under the
// fast backend: a bit-parallel run killed at any merged-shard boundary and
// resumed produces byte-identical coefficients to an uninterrupted
// bit-parallel run, for several worker counts and kill points in both
// phases (10 basic + 10 biased shards).
func TestCheckpointResumeBitParallel(t *testing.T) {
	mkOpt := func(workers int) CharacterizeOptions {
		opt := ckOpts(workers)
		opt.Backend = BackendBitParallel
		return opt
	}
	base, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", mkOpt(2))
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, base)
	for _, workers := range []int{1, 2, 4} {
		for _, k := range []int{1, 5, 10, 11, 17, 20} {
			path := filepath.Join(t.TempDir(), "ck.json")
			opt := mkOpt(workers)
			opt.Checkpoint = CheckpointOptions{Path: path, Resume: true, EveryShards: 4}

			killAt(t, k, opt)
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("workers=%d kill=%d: no checkpoint after kill: %v", workers, k, err)
			}
			got, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
			if err != nil {
				t.Fatalf("workers=%d kill=%d: resume failed: %v", workers, k, err)
			}
			if !bytes.Equal(marshal(t, got), want) {
				t.Errorf("workers=%d kill=%d: resumed bitparallel model differs", workers, k)
			}
		}
	}
}

// TestCheckpointBackendMismatch: charges priced by one backend must never
// merge with another's. Resuming an interrupted bit-parallel run with the
// event backend has to surface a checkpoint mismatch naming the backend.
func TestCheckpointBackendMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	opt := ckOpts(2)
	opt.Backend = BackendBitParallel
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	killAt(t, 3, opt)

	opt.Backend = BackendEvent
	_, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	if !IsCheckpointMismatch(err) {
		t.Fatalf("want checkpoint mismatch, got %v", err)
	}
	if !strings.Contains(err.Error(), "backend") {
		t.Errorf("mismatch error does not name the backend: %v", err)
	}
}

// TestCheckpointRefusesFloatChargeState: bit-parallel state accumulated
// before charges were summed in integer tenths must be refused, never
// merged with exact charges. A checkpoint carrying the topology hash the
// float-summing engine recorded for this spec fails to resume with a
// mismatch naming that hash. The event backend's topology hash for the
// same spec, which names the two-phase steps and the exact meter charge,
// is pinned too.
func TestCheckpointRefusesFloatChargeState(t *testing.T) {
	const (
		floatChargeHash = "761c0554eee11aabf8d1c544" // bitparallel, float per-lane sums
		eventHash       = "21e9a28c29aba8bfd41391f1"
	)
	path := filepath.Join(t.TempDir(), "ck.json")
	opt := ckOpts(2)
	opt.Backend = BackendBitParallel
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	killAt(t, 3, opt)

	var ck Checkpoint
	if err := atomicio.ReadJSON(path, &ck); err != nil {
		t.Fatal(err)
	}
	if want := topoHash("ripple-adder", 8, opt); ck.TopoHash != want || ck.TopoHash == floatChargeHash {
		t.Fatalf("checkpoint topology hash %s, want %s", ck.TopoHash, want)
	}
	ck.TopoHash = floatChargeHash
	if err := atomicio.WriteJSON(path, &ck); err != nil {
		t.Fatal(err)
	}
	_, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	var me *CheckpointMismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *CheckpointMismatchError, got %v", err)
	}
	if len(me.Diffs) != 1 || !strings.HasPrefix(me.Diffs[0], "topology hash") {
		t.Errorf("mismatch diffs %q, want the topology hash alone", me.Diffs)
	}

	opt.Backend = BackendEvent
	if got := topoHash("ripple-adder", 8, opt); got != eventHash {
		t.Errorf("event topology hash %s, want %s", got, eventHash)
	}
}

// TestManifestRecordsBackend: the flight recorder stamps which engine
// priced the run.
func TestManifestRecordsBackend(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 256, Seed: 2, Backend: BackendBitParallel}
	rec := NewRunRecorder("add", opt)
	opt.Hooks = rec.Hooks()
	model, err := Characterize(meterFor(t, "ripple-adder", 4), "add", opt)
	man := rec.Finish(model, err)
	if err != nil {
		t.Fatal(err)
	}
	if man.Backend != "bitparallel" {
		t.Fatalf("manifest backend %q, want bitparallel", man.Backend)
	}
}

// TestBackendCoefficientDrift quantifies how far the unit-delay glitch
// approximation moves the fitted coefficients from the event-driven golden
// reference. The drift is the price of the speedup; it must stay small
// enough that the macro-model's own accuracy budget (the paper reports
// 10-15% estimation error) dominates. Run with -v to read the measured
// numbers (EXPERIMENTS.md quotes them).
func TestBackendCoefficientDrift(t *testing.T) {
	for _, mod := range []struct {
		name  string
		width int
		tol   float64
	}{
		{"ripple-adder", 8, 0.25},
		{"csa-multiplier", 8, 0.45},
	} {
		opt := CharacterizeOptions{Patterns: 2560, Seed: 7, Workers: 2, Backend: BackendEvent}
		event, err := Characterize(meterFor(t, mod.name, mod.width), mod.name, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Backend = BackendBitParallel
		bitp, err := Characterize(meterFor(t, mod.name, mod.width), mod.name, opt)
		if err != nil {
			t.Fatal(err)
		}
		var worst, sum float64
		n := 0
		for i := range event.Basic {
			e, b := event.Basic[i], bitp.Basic[i]
			if e.Count == 0 || b.Count == 0 || e.P == 0 {
				continue
			}
			d := math.Abs(b.P-e.P) / e.P
			sum += d
			n++
			if d > worst {
				worst = d
			}
		}
		if n == 0 {
			t.Fatalf("%s: no populated classes to compare", mod.name)
		}
		t.Logf("%s-%d: coefficient drift bitparallel vs event: mean %.3f, worst %.3f (%d classes)",
			mod.name, mod.width, sum/float64(n), worst, n)
		if worst > mod.tol {
			t.Fatalf("%s: worst class drift %.3f exceeds %.2f", mod.name, worst, mod.tol)
		}
	}
}
