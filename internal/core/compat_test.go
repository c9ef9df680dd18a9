package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The legacy checkpoints under testdata were written by the release that
// still had the convergence early stop, for ripple-adder at width 2 with
// legacyOpts, each killed with a snapshot at every merged shard:
//   - legacy-checkpoint-biased.json: default options, killed at merge 3,
//     the biased phase's first shard;
//   - legacy-checkpoint-tolerance.json: the same run with a tolerance of
//     0.5 checked every 128 patterns, killed at merge 1.
func legacyOpts() CharacterizeOptions {
	return CharacterizeOptions{Patterns: 256, Enhanced: true, Seed: 21, Workers: 1}
}

// legacyCheckpoint copies a testdata checkpoint to a scratch path, since a
// resume consumes or quarantines the file it reads.
func legacyCheckpoint(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLegacyCheckpointResumes resumes a default-option checkpoint written
// with the retired check_every, converge_tol and used_shards fields. Its
// topology hash still matches, so it must resume in the biased phase to
// the uninterrupted model, which is also the model the legacy release fit.
func TestLegacyCheckpointResumes(t *testing.T) {
	want, err := Characterize(meterFor(t, "ripple-adder", 2), "ripple-adder", legacyOpts())
	if err != nil {
		t.Fatal(err)
	}
	const legacyModel = "1dfc4143fa2b80d1851a6387240cfc72e3f77f98e06b71253eafc8afea97b056"
	if got := digestJSON(t, want); got != legacyModel {
		t.Fatalf("uninterrupted model digest %s, want %s", got, legacyModel)
	}
	opt := legacyOpts()
	var resumed string
	opt.Hooks = &Hooks{Resumed: func(phase string, _, _, _ int) { resumed = phase }}
	opt.Checkpoint = CheckpointOptions{Path: legacyCheckpoint(t, "legacy-checkpoint-biased.json"), Resume: true}
	got, err := Characterize(meterFor(t, "ripple-adder", 2), "ripple-adder", opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != PhaseBiased {
		t.Errorf("resumed in phase %q, want %q", resumed, PhaseBiased)
	}
	if !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Error("model resumed from the legacy checkpoint differs from the uninterrupted run")
	}
}

// TestLegacyToleranceCheckpointRefused refuses a checkpoint written with
// a convergence tolerance: every identity field it still carries matches,
// but its topology hash named the tolerance.
func TestLegacyToleranceCheckpointRefused(t *testing.T) {
	opt := legacyOpts()
	path := legacyCheckpoint(t, "legacy-checkpoint-tolerance.json")
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	_, err := Characterize(meterFor(t, "ripple-adder", 2), "ripple-adder", opt)
	var me *CheckpointMismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *CheckpointMismatchError, got %v", err)
	}
	if len(me.Diffs) != 1 || !strings.HasPrefix(me.Diffs[0], "topology hash:") {
		t.Errorf("mismatch names %q, want only the topology hash", me.Diffs)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("refused checkpoint must be left in place: %v", err)
	}
}

// topoHash is the checkpoint topology hash of a run of opt.
func topoHash(module string, bits int, opt CharacterizeOptions) string {
	opt.setDefaults()
	return charTopoHash(module, bits, &opt)
}

// TestFingerprintsStable pins Fingerprint for three specs, so a change
// that moves it, and with it which fleet workers and coordinators accept
// each other, shows here. Fingerprint names the shard format on top of
// the checkpoint topology hash; the topology hashes are the values the
// release with the early stop computed, so checkpoints of either release
// resume.
func TestFingerprintsStable(t *testing.T) {
	for _, c := range []struct {
		module string
		bits   int
		opt    CharacterizeOptions
		want   string
		topo   string
	}{
		{"ripple-adder-w4", 8, CharacterizeOptions{}, "c905a241eaeabf36ea4c59ef", "37b4734f35278d60af634ac4"},
		{"csa-multiplier-w8", 16, CharacterizeOptions{Patterns: 2000, Seed: 1, Enhanced: true,
			Backend: BackendBitParallel}, "2e98eecd7c996d6cc4e51878", "77fc201fe110ee15ba5a1c87"},
		{"kogge-stone-adder-w16", 32, CharacterizeOptions{Patterns: 8000, Seed: 42, Enhanced: true,
			ZClusters: 4, Backend: BackendEvent}, "9de2471a341e04c5e98a09ef", "62b30494352512e5fbcde30a"},
	} {
		if got := Fingerprint(c.module, c.bits, c.opt); got != c.want {
			t.Errorf("Fingerprint(%s, %d) = %s, want %s", c.module, c.bits, got, c.want)
		}
		if got := topoHash(c.module, c.bits, c.opt); got != c.topo {
			t.Errorf("topology hash of %s, %d = %s, want %s", c.module, c.bits, got, c.topo)
		}
	}
}
