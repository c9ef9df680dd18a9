package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
	"hdpower/internal/serve"
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

// TestServeResumesCharacterizeCheckpoint: the CLI and hdserve name a run
// alike, so a serve build over the checkpoint directory of a killed
// characterize run resumes its checkpoint, and the model serve stores in
// its library is byte-identical to the one an uninterrupted characterize
// run stores.
func TestServeResumesCharacterizeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	cliLib := filepath.Join(dir, "cli-lib")
	serveLib := filepath.Join(dir, "serve-lib")
	args := func(extra ...string) []string {
		return append([]string{"-module", "ripple-adder", "-width", "4", "-seed", "3",
			"-patterns", "1280", "-enhanced", "-o", filepath.Join(dir, "model.json")}, extra...)
	}
	if err := cmdCharacterize(args("-library", cliLib)); err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Arm("core.merge=error:after=5"); err != nil {
		t.Fatal(err)
	}
	err := cmdCharacterize(args("-checkpoint", ckpt, "-checkpoint-every", "3"))
	faultpoint.Disarm()
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}

	s := serve.New(serve.Config{CheckpointDir: ckpt, LibraryDir: serveLib, Backend: core.BackendBitParallel})
	ts := httptest.NewServer(s.Handler())
	defer s.Close()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/models/build", "application/json", strings.NewReader(
		`{"module":"ripple-adder","width":4,"seed":3,"patterns":1280,"enhanced":true,"wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serve build: %d %s", resp.StatusCode, body)
	}
	if resp, err = http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("\nhdserve_builds_resumed_total 1\n")) {
		t.Error("hdserve_builds_resumed_total is not 1: serve did not resume the CLI's checkpoint")
	}

	const model = "models/ripple-adder-w4-enhanced.json"
	want, err := os.ReadFile(filepath.Join(cliLib, model))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(serveLib, model)); err != nil || !bytes.Equal(got, want) {
		t.Errorf("serve library's %s differs from the CLI's (%v)", model, err)
	}
}

// TestCharacterizeRefusesUnbuildableWidth: the radix-4 Booth multiplier
// builds at even widths only, so characterize refuses width 5 with the
// catalog's reason instead of panicking in the generator.
func TestCharacterizeRefusesUnbuildableWidth(t *testing.T) {
	out := filepath.Join(t.TempDir(), "model.json")
	err := cmdCharacterize([]string{"-module", "booth-wallace-multiplier", "-width", "5",
		"-patterns", "512", "-o", out})
	if err == nil || !strings.Contains(err.Error(), "even width") {
		t.Fatalf("width 5: %v, want the catalog's even-width refusal", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("refused width wrote a model: %v", err)
	}
}

// TestVerifyAllSkipsUnbuildableWidth: verify -all at a width a module does
// not build at lists that module as skipped with the catalog's reason, and
// verifies the rest, instead of panicking in its generator.
func TestVerifyAllSkipsUnbuildableWidth(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = cmdVerify([]string{"-all", "-width", "5"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	const skipped = "booth-wallace-multiplier-5: skipped: module booth-wallace-multiplier requires an even width, got 5\n"
	if !strings.Contains(out, skipped) || strings.Count(out, "skipped") != 1 {
		t.Errorf("verify -all -width 5 printed:\n%s\nwant exactly one skipped line, %q", out, skipped)
	}
	if !strings.Contains(out, "ripple-adder-5: ok") {
		t.Errorf("verify -all -width 5 did not verify ripple-adder:\n%s", out)
	}
}

// TestSynthesizeRefusesWidthBelowOne: a width of 0 would write a model
// with no inputs and a negative one would panic, so synthesize refuses
// both before reading the regression; width 1 still synthesizes.
func TestSynthesizeRefusesWidthBelowOne(t *testing.T) {
	dir := t.TempDir()
	param := filepath.Join(dir, "param.json")
	if err := os.WriteFile(param, []byte(`{"module":"ripple-adder","basis":"linear",`+
		`"width_factor":2,"r":[[1,2],[3,4]],"residual":[0,0]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "model.json")
	for _, w := range []string{"0", "-1"} {
		if err := cmdSynthesize([]string{"-param", param, "-width", w, "-o", out}); err == nil {
			t.Errorf("-width %s accepted", w)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("refused width wrote a model: %v", err)
	}
	if err := cmdSynthesize([]string{"-param", param, "-width", "1", "-o", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := atomicio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModel(raw)
	if err != nil || m.InputBits != 2 {
		t.Fatalf("width-1 synthesis: %v, %+v", err, m)
	}
}
