package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdpower/internal/faultpoint"
)

// allHooks extends hookTrace to every Hooks callback. Checkpoint write
// errors carry temporary paths, so only their presence is recorded.
func allHooks(events *[]string) *Hooks {
	h := hookTrace(events)
	h.Resumed = func(phase string, shards, basic, biased int) {
		*events = append(*events, fmt.Sprintf("resumed:%s:%d:%d:%d", phase, shards, basic, biased))
	}
	h.CheckpointSaved = func(err error) { *events = append(*events, fmt.Sprintf("saved:%v", err == nil)) }
	return h
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// resumeGolden is what one kill pins: the SHA-256 of the checkpoint file
// the killed run leaves, and of the hook sequence of the killed run, the
// resumed run and the resumed model's digest, one event per line.
type resumeGolden struct {
	checkpoint, hooks string
}

// TestCheckpointResumeGoldenDigests kills a checkpointed run at every
// merged-shard boundary and pins, byte for byte, the checkpoint each kill
// leaves and every hook the killed and the resumed run fire. A change to
// the order of hooks around a phase boundary, to when snapshots are
// taken, or to a snapshot's encoding moves a digest.
func TestCheckpointResumeGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-and-resume sweep skipped in -short mode")
	}
	cases := []struct {
		name  string
		opt   CharacterizeOptions
		every int
		want  []resumeGolden // want[k-1] for the kill at merge k
	}{
		{"enhanced", ckOpts(2), 4, enhancedResumeGoldens},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for k := 1; k <= len(c.want); k++ {
				got := killAndResume(t, k, c.opt, c.every)
				if got != c.want[k-1] {
					t.Errorf("kill at merge %d: got {%q, %q}, want {%q, %q}", k,
						got.checkpoint, got.hooks, c.want[k-1].checkpoint, c.want[k-1].hooks)
				}
			}
		})
	}
}

// killAndResume runs opt with checkpointing, kills it at merge k, resumes
// it to completion and returns the digests of what it observed. A kill
// past the run's last core.merge hit never fires: the run completes, and
// must leave no checkpoint behind.
func killAndResume(t *testing.T, k int, opt CharacterizeOptions, every int) resumeGolden {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	var events []string
	opt.Hooks = allHooks(&events)
	opt.Checkpoint = CheckpointOptions{Path: path, Resume: true, EveryShards: every}

	faultpoint.Disarm()
	if err := faultpoint.Arm(fmt.Sprintf("core.merge=error:after=%d", k)); err != nil {
		t.Fatal(err)
	}
	model, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	faultpoint.Disarm()
	checkpoint := "none"
	if err == nil {
		if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
			t.Fatalf("kill at merge %d: completed run left its checkpoint: %v", k, statErr)
		}
	} else {
		if !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("kill at merge %d: want injected fault, got %v", k, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("kill at merge %d: %v", k, err)
		}
		checkpoint = sha256Hex(raw)
		events = append(events, "resume")
		if model, err = Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt); err != nil {
			t.Fatalf("kill at merge %d: resume: %v", k, err)
		}
	}
	events = append(events, "model:"+digestJSON(t, model))
	return resumeGolden{
		checkpoint: checkpoint,
		hooks:      sha256Hex([]byte(strings.Join(events, "\n"))),
	}
}

// enhancedResumeGoldens covers ckOpts(2) with a snapshot every 4 shards:
// kills 1–10 land in the basic phase, 11–20 in the biased phase.
var enhancedResumeGoldens = []resumeGolden{
	{"3f1af71c5bbc17fceae2dcb89cd30201d96da9cc870d8dd698d05c68d33d869b",
		"b327dced97d0e4f3413099de23e296edcb9c01d3333e5435d1eb6bb4fdec3f78"},
	{"8116e1996260e6bd40865da1030f8fd30cb282f3cab39857e33d269ea5942b56",
		"2c71cb822d24d7bbf90d1803e470d297f9cc713c6ca148ffb07e4cef2220b197"},
	{"60803554d283db1b6f1435fcea6cfa161fe10a1d4865a365252cfc79ce33ae54",
		"54cefba87237b2bbdf76f469ffe3dc3771445dbb929ef52a4e762ab253f00a7a"},
	{"6aeda08e377d35ea0fc1b783b404cb94f998cc5d346d2fc3e9fc7e5e5a37a352",
		"d70d786f5ba6df7731d46da7fa6221629c9c81364f5d2f27586e9a383522abc0"},
	{"871a7933243b389033b172fdb2eabeed0bcfaa296866252d0b9dbf06955fe097",
		"5c245518d09f38790ceb025b0e560e104c42844c2f7870be93b7258e0d65d4f4"},
	{"d84de1ca75f55a625c9477506765a4d983f91d6b7c0d9bffe44f4525ece33e0e",
		"06b99b9b859a01b8de44c58fca7a72aff363dfd97676ac158ead636941ab98a2"},
	{"b71ef4f4dd6622c4fc792f30c7e0749d54bf187de1d35d348cfdad1900088c6c",
		"48af90d3876cfee9905d7584682c50ff1ba0009dbe83dbfeddaf99e7f52df1a2"},
	{"caf9e0fc2b060186b924ba2476c42673609b7c875ac9eed1bf2ef28e38a9db00",
		"d37464db75b23507ad37f26f3655d315bff203ba0e651c8a28932669a9d5f8ab"},
	{"166cacce8acf158d1a54030eb742856737e953e8b70d10eb072e9d2902e5e1f4",
		"523a8dfe6692a575a10155b481d84ee643daebb2c3f8a508d84bc83ea05930b7"},
	{"75c30cface4351e60479b53298b08dfc52864ead9d25be2435e22fa583f54fca",
		"be551031b4a644cf2fd7ff7caf9497137e3774cbdf0ff09a4143526df6201d41"},
	{"ab267af871830aea0237f769408287876ea96d2cf53f99178bb4d71fa8ea8901",
		"5fe1388e12415cb83145734c8a88dcb0453fa6bd0d7bd2c45d119361305f2532"},
	{"a65b96ebfbbc2dcd76830d4283e034565f382d3d8c189efac8cc9a9d3e00cfb3",
		"a49a0bbdb841276d29e66186b1f56eed988ee9476af8f70e2f713e797e2a9a78"},
	{"fb01a18a65263ee5800eb08d549191c65b0447e95b771695fe1d9ae77d5d4750",
		"f22f4119956d0b570e91215ba0cfa46e3fb94be7f3b4c185ed7d1da32adf9d14"},
	{"49c4e8527ec384aad79c68bec54a2bf9609bb6558069644b9fc5a4ca6114d50c",
		"c8cc84eed4da7560464da81bf7322095c60dba70885a284659987ca36901ffb5"},
	{"4f4abb386c45b5f14f48421c66aeaf500b9e42c73f896c8188e16b39f3f82fdb",
		"0f067ea765a3cf606e1ddcc6000618cce52c146950dd4f44d0405c410c1dda41"},
	{"9c7322697ad7a3028f31ad644ab266938fa7b553175cb923a48bb6e40accf071",
		"6def3d3fad07c0067727056eaca7de6eed21a38f1432861a6fb46000f1e5afc1"},
	{"bda4a72061661a52368ce7c49d1bfae472dfabd3333523cc655df572eb5bc52a",
		"e2feb018aa06dc0fbc3d66aa7bb4a84eeb8208c91e1a45243f15d37d16b5c5d2"},
	{"6f2c64e198a0e797b19bd21f48396d75bfc525ac746d25aaf35740d707357b90",
		"8dcee28347dae86efa4d67538d459e786da05c5f7893abcdfb9a3933de7d0d0c"},
	{"47b1966228ef3824fa040f44632b797f13225b9cf88f2cdb54dce12f047c7d8a",
		"0106b755350f731c6a3cf7a6475ac3787ad379e50c07559d9215f7261e82e756"},
	{"6ee6e4726f4557fd00ddf1c0e971fe2a4c1809704eb09c7d6089a905b29f2ed0",
		"498f6d445717988ffe5fe24f739a90e187859ac01b58a60f307a9d007f58f5f7"},
}
