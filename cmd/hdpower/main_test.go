package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
)

// TestCharacterizeKillAndResume walks the checkpoint/resume flow the
// README documents: a characterize run killed mid-build and rerun with the
// same flags resumes from its checkpoint and writes a model byte-identical
// to an uninterrupted run's. The 1280-pattern enhanced build merges 10
// basic and 10 biased shards, so the kills land mid-basic, on the last
// basic shard and mid-biased.
func TestCharacterizeKillAndResume(t *testing.T) {
	dir := t.TempDir()
	args := func(out string, extra ...string) []string {
		return append([]string{"-module", "ripple-adder", "-width", "4",
			"-patterns", "1280", "-enhanced", "-o", out}, extra...)
	}
	want := filepath.Join(dir, "want.json")
	if err := cmdCharacterize(args(want)); err != nil {
		t.Fatal(err)
	}
	wantRaw, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		kill  int
		phase string
	}{{5, core.PhaseBasic}, {10, core.PhaseBasic}, {14, core.PhaseBiased}} {
		ckpt := filepath.Join(dir, fmt.Sprintf("ckpt-%d", tc.kill))
		out := filepath.Join(dir, fmt.Sprintf("model-%d.json", tc.kill))
		trace := filepath.Join(dir, fmt.Sprintf("trace-%d.json", tc.kill))
		resumable := args(out, "-checkpoint", ckpt, "-checkpoint-every", "3", "-resume")

		if err := faultpoint.Arm(fmt.Sprintf("core.merge=error:after=%d", tc.kill)); err != nil {
			t.Fatal(err)
		}
		err := cmdCharacterize(resumable)
		faultpoint.Disarm()
		if !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("kill at merge %d: want injected fault, got %v", tc.kill, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("kill at merge %d: killed run wrote its model: %v", tc.kill, err)
		}

		if err := cmdCharacterize(append(resumable, "-trace", trace)); err != nil {
			t.Fatalf("kill at merge %d: resume: %v", tc.kill, err)
		}
		var man core.RunManifest
		if err := atomicio.ReadJSON(trace, &man); err != nil {
			t.Fatal(err)
		}
		if !man.Resumed || man.ResumedFromPhase != tc.phase {
			t.Errorf("kill at merge %d: manifest resumed=%v from %q, want the %s phase",
				tc.kill, man.Resumed, man.ResumedFromPhase, tc.phase)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantRaw) {
			t.Errorf("kill at merge %d: resumed model differs from the uninterrupted run", tc.kill)
		}
		if left, _ := os.ReadDir(ckpt); len(left) != 0 {
			t.Errorf("kill at merge %d: checkpoint directory not emptied after success: %v", tc.kill, left)
		}
	}
}
