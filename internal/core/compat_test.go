package core

import (
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
//
// Both were priced by the one-at-a-time event engine and its float
// charge sums, so both must be refused now.
func legacyOpts() CharacterizeOptions {
	return CharacterizeOptions{Patterns: 256, Enhanced: true, Seed: 21, Workers: 1}
}

// refuseLegacy resumes legacyOpts from a copy of a testdata checkpoint
// (a resume consumes or quarantines the file it reads) and requires a
// refusal that names only the topology hash, with the file left in place.
func refuseLegacy(t *testing.T, name string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := legacyOpts()
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	_, err = Characterize(meterFor(t, "ripple-adder", 2), "ripple-adder", opt)
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

// TestLegacyCheckpointRefused refuses a default-option checkpoint written
// with the retired check_every, converge_tol and used_shards fields: every
// identity field it carries matches, but its topology hash named neither
// the two-phase event steps nor the exact charge.
func TestLegacyCheckpointRefused(t *testing.T) {
	refuseLegacy(t, "legacy-checkpoint-biased.json")
}

// TestLegacyToleranceCheckpointRefused refuses a checkpoint written with
// a convergence tolerance, whose topology hash also named the tolerance.
func TestLegacyToleranceCheckpointRefused(t *testing.T) {
	refuseLegacy(t, "legacy-checkpoint-tolerance.json")
}

// topoHash is the checkpoint topology hash of a run of opt.
func topoHash(module string, bits int, opt CharacterizeOptions) string {
	opt.setDefaults()
	return charTopoHash(module, bits, &opt)
}

// TestFingerprintsStable pins Fingerprint and the checkpoint topology
// hash for three specs, so a change that moves either, and with it which
// checkpoints resume and which fleet workers and coordinators accept each
// other, shows here. Fingerprint names the shard format on top of the
// topology hash.
func TestFingerprintsStable(t *testing.T) {
	for _, c := range []struct {
		module string
		bits   int
		opt    CharacterizeOptions
		want   string
		topo   string
	}{
		{"ripple-adder-w4", 8, CharacterizeOptions{}, "23ef610d7449c4f87fd276cb", "02220c1c43780e3b03fdb7e5"},
		{"csa-multiplier-w8", 16, CharacterizeOptions{Patterns: 2000, Seed: 1, Enhanced: true,
			Backend: BackendBitParallel}, "7467c3c912935b1a8e6e66d9", "ea85d33427386c260d939079"},
		{"kogge-stone-adder-w16", 32, CharacterizeOptions{Patterns: 8000, Seed: 42, Enhanced: true,
			ZClusters: 4, Backend: BackendEvent}, "c72915afa90404f632ccc061", "1ae18d9bfe7647f00be89586"},
	} {
		if got := Fingerprint(c.module, c.bits, c.opt); got != c.want {
			t.Errorf("Fingerprint(%s, %d) = %s, want %s", c.module, c.bits, got, c.want)
		}
		if got := topoHash(c.module, c.bits, c.opt); got != c.topo {
			t.Errorf("topology hash of %s, %d = %s, want %s", c.module, c.bits, got, c.topo)
		}
	}
}
