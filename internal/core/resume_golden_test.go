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
	{"71d8cb3e5596e6f26761853617d5d5aca71c76738658094d930bfe52255e0625",
		"74bdf26625738e798ebbc7840847db626e6d154a8da6d18760a69d565e8e2633"},
	{"6f9316b4d8ea66f2bdd8890a022586a4d2b280b205e36c33d2ac6f049852e8d1",
		"d01f82feb352c38499ae69d1523aa825367d0acf627ef525c797b4de604934c2"},
	{"096a741d49b178dc19ab8b85eb4c2370b1b7a7e83ec50bf62809c1929a0c8515",
		"03f35af62cacc20074adffaadb72c6e0318089f719fa53ee95f4e52d5cae3d95"},
	{"abad9b3c38ad983a367716b6f5eb82259ad131ab41bac6a9daae34ab913f4a2d",
		"8381761332afa1f6cb5e32a8d24aac8eeff131423a3eb6fced31d3c6b27c61a6"},
	{"84250ae836140d08671e7ab75e42f13b0cb5128c20faf6287bb5c62b6840f373",
		"4cc4530d19250d8dc51929132822baee98c81f6b68b56af1864a3a7cc9a4c3fc"},
	{"f381d7ce2ca2771ca996ce80b0c242e08f42152a685bf26185660f84576ed988",
		"0384b6d84f9917e674068039969e5fd0595b1c93b86d8c0685ae95c97b325315"},
	{"b7d3410ac087b24b09dfd0dc9c4f448d201ca715cfcd6ec5bc5a0864d717363e",
		"9b200608a1c6610cf1da89e37721983b6fd634edb3cdf147662455af2e5baf78"},
	{"9a6d1d1136a44d9e18e0d4e22dddf45ee9fa9cf954c2c1145071baf8b0916d3f",
		"d1a17a2dc485307f77ba39d469629d50b8d26486c6adfae00df388f197b4adc8"},
	{"8930a8bf7da0dc8dcfd6426f388a0e0c4a3eb71f11bd5b2ffb5e4ac2091f4d2c",
		"886eb86354ef4e2736a122f978abf14600e14ab144431056fd839e06c0b3e3c4"},
	{"ceff8c7bb637b39a2482e813429e4c62c39fa11e648542f1a7247f27feb2588e",
		"a6413a6f96187a4aa5343960ef90bb08db0935015e4b081cead36d51df4c2400"},
	{"83111bca5bded1dc116a4682bd8741cd098aa9420d82f7415a9a320b539c7d80",
		"bc267714a63c94b1c629b812c464a29e1fab441b1805bbb8e6efc93bc67f9a07"},
	{"7a5f9b8461a1c965603ec6c0aa5768183061ddd186becb97e316c6d5857b4318",
		"6057b13106db14530f05939871b01ad136755e6b418757a2d80d241475aac484"},
	{"864454d877fc6bc99622778df44ea4bb1cb838a29820b7bb6fadb0f1644a20a0",
		"3f92f67d2b1332470ef2e4924dea9827aa163a5c384d4d07c1066ae317842d3d"},
	{"7ae664f2fda313750ca46f718e87320afd65af12206025ef1c7344e73baae310",
		"adea435a6dd222e97b792142f911420c52901f9622a270ccd8e34a85647d9ec5"},
	{"6f50a91261636c09d4f2487e97250ac767ed3233842d4dba7e52469fe5a8417a",
		"98999fce3f93e850eb1cd8bc24ffe6e47b8197046f0e46c2f76bd517e5004614"},
	{"b8fffec08354f30db265fcae20fea57526cfb7391bc28dcceb178907631ae361",
		"aa171270cfcc01c996bc6c12e3b894308ad3b5d0f6b1743540d1896c03931448"},
	{"c963b31a130ab9e7a64b38ba8cbdd8c03e9c4d515c2a5c834f54aabb9a50ed8d",
		"0097f2e39c61da7b252d6361169e35e062e0054a503732704348c12fb76b4cc7"},
	{"485b9888463f5965113427ed49a5520a3b2c38a6a1a3b0a8301eddd8ffac12f7",
		"304b4cd6f31b79d221de79a667e9367216408ffd4d03e842d911d79d7f1c2608"},
	{"ac6c886cdde66756bb78c7238c0bc47b0c1a3ceaf490578f141622e97a01b88b",
		"af27fbedd8aec73f9c6bb77b41e251655e17ca9c63dcfe47d0ba79d2946055f1"},
	{"667ad11abf75f5169a8e4c123a2abbfc32449bcbef359056bc9d29bf98cfc9ee",
		"cd38a0e8f5cbb7eb5096a366d389ae25c71fb9e396d98c191d41081df35b346d"},
}
