package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hdpower/internal/atomicio"
	"hdpower/internal/faultpoint"
	"hdpower/internal/netlist"
)

// ckOpts is the shared run shape of the resume tests: enhanced fit over
// 10 shards per phase, so kills land in both phases.
func ckOpts(workers int) CharacterizeOptions {
	return CharacterizeOptions{
		Patterns: 1280,
		Enhanced: true,
		Seed:     11,
		Workers:  workers,
	}
}

func marshal(t *testing.T, m *Model) []byte {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recordTrajectory runs opt on ripple-adder-4 — under the name killAt's
// checkpoints carry — with a RunRecorder, and returns the convergence
// trajectory the manifest records.
func recordTrajectory(t *testing.T, opt CharacterizeOptions) []ConvergencePoint {
	t.Helper()
	rec := NewRunRecorder("ripple-adder", opt)
	opt.Hooks = rec.Hooks()
	model, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Finish(model, nil).Convergence
}

// killAt arms the core.merge fault point to fail the k-th merged shard,
// runs Characterize, and requires the injected failure to surface.
func killAt(t *testing.T, k int, opt CharacterizeOptions) {
	t.Helper()
	faultpoint.Disarm()
	if err := faultpoint.Arm(fmt.Sprintf("core.merge=error:after=%d", k)); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Disarm()
	_, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("kill at merge %d: want injected fault, got %v", k, err)
	}
}

// TestCheckpointResumeBitIdentical is the crash-safety contract: a run
// killed at ANY merged-shard boundary — basic phase, phase transition,
// biased phase — and resumed from its checkpoint produces byte-identical
// coefficients to an uninterrupted run, for every worker count.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	base, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", ckOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, base)
	const totalMerges = 20 // 10 basic shards + 10 biased shards

	for _, workers := range []int{1, 2, 4} {
		kills := []int{1, 4, 9, 10, 11, 16, 20}
		if workers == 2 {
			kills = nil
			for k := 1; k <= totalMerges; k++ {
				kills = append(kills, k)
			}
		}
		for _, k := range kills {
			path := filepath.Join(t.TempDir(), "ck.json")
			opt := ckOpts(workers)
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
				t.Errorf("workers=%d kill=%d: resumed model differs from uninterrupted run", workers, k)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("workers=%d kill=%d: checkpoint not removed after success", workers, k)
			}
		}
	}
}

// TestCheckpointResumeAfterSecondCrash chains two crashes: kill, resume,
// kill again later, resume again — still bit-identical.
func TestCheckpointResumeAfterSecondCrash(t *testing.T) {
	base, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", ckOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	opt := ckOpts(2)
	opt.Checkpoint = CheckpointOptions{
		Path: filepath.Join(t.TempDir(), "ck.json"), Resume: true, EveryShards: 3,
	}
	killAt(t, 5, opt) // first crash mid-basic
	killAt(t, 8, opt) // resumed run crashes again, mid-biased this time
	got, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, got), marshal(t, base)) {
		t.Error("doubly-resumed model differs from uninterrupted run")
	}
}

// TestResumedTrajectoryIgnoresListeners kills a checkpointed run whose
// process had no Convergence listener and resumes it with a recorder. The
// tracker runs whether or not anyone listens, so the resumed trajectory
// must equal the uninterrupted run's points past the kill: no spurious
// first-checkpoint point, and every change measured against the same
// baseline.
func TestResumedTrajectoryIgnoresListeners(t *testing.T) {
	base := CharacterizeOptions{Patterns: 4000, Seed: 7, Workers: 1}
	const kill = 20
	var want []ConvergencePoint
	for _, p := range recordTrajectory(t, base) {
		if p.Patterns > kill*shardPatterns {
			want = append(want, p)
		}
	}
	if len(want) == 0 {
		t.Fatal("uninterrupted trajectory has no point past the kill")
	}

	opt := base
	opt.Checkpoint = CheckpointOptions{
		Path: filepath.Join(t.TempDir(), "ck.json"), Resume: true, EveryShards: 1,
	}
	killAt(t, kill, opt)
	if got := recordTrajectory(t, opt); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed trajectory %v, want %v", got, want)
	}
}

// TestCheckpointMismatch refuses to resume a checkpoint from a different
// run, naming the differing fields.
func TestCheckpointMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	opt := ckOpts(2)
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	killAt(t, 3, opt)

	opt.Seed = 12
	_, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	if !IsCheckpointMismatch(err) {
		t.Fatalf("want checkpoint mismatch, got %v", err)
	}
	if !strings.Contains(err.Error(), "seed") {
		t.Errorf("mismatch error does not name the seed: %v", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Errorf("mismatched checkpoint must be left in place: %v", statErr)
	}
}

// TestCorruptCheckpointStartsFresh flips a byte in the checkpoint: the
// resume must quarantine it and fall back to a full — still correct — run.
func TestCorruptCheckpointStartsFresh(t *testing.T) {
	base, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", ckOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	opt := ckOpts(2)
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	killAt(t, 4, opt)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, got), marshal(t, base)) {
		t.Error("fresh run after corrupt checkpoint differs from baseline")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
}

// TestImpossibleCheckpointQuarantined: a checkpoint that passes its
// checksum and identity check but is one basic accumulator short cannot
// be resumed. A run refused before its session opens, here over a
// netlist broken by surgery, leaves it at the path as it was; the next
// run quarantines it to <path>.corrupt and builds from scratch,
// bit-identical to an uninterrupted run.
func TestImpossibleCheckpointQuarantined(t *testing.T) {
	base, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", ckOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	opt := ckOpts(2)
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	killAt(t, 3, opt)
	var cp Checkpoint
	if err := atomicio.ReadJSON(path, &cp); err != nil {
		t.Fatal(err)
	}
	cp.Basic = cp.Basic[:len(cp.Basic)-1]
	if err := atomicio.WriteJSON(path, &cp); err != nil {
		t.Fatal(err)
	}
	impossible, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	broken := meterFor(t, "ripple-adder", 4)
	nl := broken.Simulator().Netlist()
	nl.RewireGateInput(0, 0, nl.GateOutput(0))
	var verr *netlist.VerifyError
	if _, err := Characterize(broken, "ripple-adder", opt); !errors.As(err, &verr) {
		t.Fatalf("run over a broken netlist = %v, want a *netlist.VerifyError", err)
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, impossible) {
		t.Fatalf("refused run changed the checkpoint at its path: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
		t.Fatalf("refused run quarantined the checkpoint: %v", err)
	}

	resumed := false
	opt.Hooks = &Hooks{Resumed: func(string, int, int, int) { resumed = true }}
	got, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("run resumed an impossible checkpoint")
	}
	if !bytes.Equal(marshal(t, got), marshal(t, base)) {
		t.Error("fresh run after an impossible checkpoint differs from baseline")
	}
	if raw, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(raw, impossible) {
		t.Errorf("impossible checkpoint not quarantined as it was: %v", err)
	}
}

// TestResumeManifestTotals checks that a resumed run's flight-recorder
// manifest reports whole-run totals, not just the resumed segment.
func TestResumeManifestTotals(t *testing.T) {
	opt := ckOpts(2)
	opt.Checkpoint = CheckpointOptions{
		Path: filepath.Join(t.TempDir(), "ck.json"), Resume: true, EveryShards: 4,
	}
	saves := 0
	opt.Hooks = &Hooks{CheckpointSaved: func(err error) {
		if err != nil {
			t.Errorf("checkpoint save failed: %v", err)
		}
		saves++
	}}
	killAt(t, 7, opt)
	if saves == 0 {
		t.Fatal("no checkpoint saves observed before the kill")
	}

	rec := NewRunRecorder("ripple-adder", opt)
	opt.Hooks = rec.Hooks()
	model, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	man := rec.Finish(model, err)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Resumed || man.ResumedFromPhase != PhaseBasic {
		t.Errorf("manifest resumed=%v phase=%q", man.Resumed, man.ResumedFromPhase)
	}
	if man.PatternsBasic != 1280 || man.PatternsBiased != 1280 {
		t.Errorf("manifest patterns %d/%d, want 1280/1280", man.PatternsBasic, man.PatternsBiased)
	}
	if man.ShardsMerged != 20 {
		t.Errorf("manifest shards merged %d, want 20", man.ShardsMerged)
	}
	if p := rec.Progress(); p != (RunProgress{ShardsTotal: 20, ShardsMerged: 20, Patterns: 2560}) {
		t.Errorf("recorder progress %+v, want 20 of 20 shards and 2560 patterns", p)
	}
}

// TestNoSnapshotAtPhaseEnd: a periodic snapshot due on a phase's last
// shard is left to complete, which snapshots the handover or removes the
// file right after. A run resumed at basic shard 2 of 10 with a snapshot
// every 4 shards saves at shard 6 and once at the handover, not at shard
// 10 as well; interrupted on shard 10, it still saves the whole phase.
func TestNoSnapshotAtPhaseEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	opt := ckOpts(2)
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true, EveryShards: 4}
	var saves []string
	opt.Hooks = &Hooks{CheckpointSaved: func(err error) {
		cp, lerr := LoadCheckpoint(path)
		if err != nil || lerr != nil {
			t.Errorf("checkpoint save: %v, load: %v", err, lerr)
			return
		}
		saves = append(saves, fmt.Sprintf("%s/%d", cp.Phase, cp.ShardsMerged))
	}}
	killAt(t, 2, opt)
	killed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	saves = nil
	if _, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt); err != nil {
		t.Fatal(err)
	}
	if want := []string{"basic/6", "biased/0", "biased/4", "biased/8"}; !slices.Equal(saves, want) {
		t.Errorf("resumed run saved %v, want %v", saves, want)
	}

	// The resumed run's eighth merge is basic shard 10.
	if err := os.WriteFile(path, killed, 0o644); err != nil {
		t.Fatal(err)
	}
	saves = nil
	killAt(t, 8, opt)
	if want := []string{"basic/6", "basic/10"}; !slices.Equal(saves, want) {
		t.Errorf("run interrupted on the phase's last shard saved %v, want %v", saves, want)
	}
}

// TestLoadCheckpointMissing keeps the os sentinel contract.
func TestLoadCheckpointMissing(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.json"))
	if !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist, got %v", err)
	}
}
