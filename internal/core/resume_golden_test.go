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
	earlyStop := CharacterizeOptions{
		Patterns: 2560, Enhanced: true, Seed: 5, Workers: 2,
		ConvergeTol: 0.9, CheckEvery: 256,
	}
	cases := []struct {
		name  string
		opt   CharacterizeOptions
		every int
		want  []resumeGolden // want[k-1] for the kill at merge k
	}{
		{"enhanced", ckOpts(2), 4, enhancedResumeGoldens},
		{"early-stop", earlyStop, 0, earlyStopResumeGoldens},
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
	{"fc865f7bba37d19f198ebbb0c53a9539c8715f52f655e9eae2cd6d8c9a73cf78",
		"74bdf26625738e798ebbc7840847db626e6d154a8da6d18760a69d565e8e2633"},
	{"7d480a9c6e36403a212d9e703832bd1e93c3dd2e48072e3bd525813bd645ed21",
		"d01f82feb352c38499ae69d1523aa825367d0acf627ef525c797b4de604934c2"},
	{"6bbe72da98e3b6f2a7888b9c98330fd3c0521ef87d0d15838842836b6f28583c",
		"03f35af62cacc20074adffaadb72c6e0318089f719fa53ee95f4e52d5cae3d95"},
	{"876d8aa346c2ba990d07de04e956323531ce81bd16b1a2669470cebeab3b7081",
		"8381761332afa1f6cb5e32a8d24aac8eeff131423a3eb6fced31d3c6b27c61a6"},
	{"02b9d2ec19fc6bea643faa6d4f6c682147675ecf5e49e757cb37413277cbbddb",
		"4cc4530d19250d8dc51929132822baee98c81f6b68b56af1864a3a7cc9a4c3fc"},
	{"edb5511738223dd972bcc1d7a25bcd4e02bd84a71b8149d9f1f53114282d996e",
		"0384b6d84f9917e674068039969e5fd0595b1c93b86d8c0685ae95c97b325315"},
	{"4aab37761c18d9e12034f570c48cac5a8e7972344b352f1f861bd1034d207faf",
		"9b200608a1c6610cf1da89e37721983b6fd634edb3cdf147662455af2e5baf78"},
	{"a05beb9317c9564da946748341b945ee1f968aeeb1167f597ec2254c36eca122",
		"d1a17a2dc485307f77ba39d469629d50b8d26486c6adfae00df388f197b4adc8"},
	{"3c7e9ca59db5b5de82847796d86f411267ff87076ac63ce271a47f0d4104e2e5",
		"886eb86354ef4e2736a122f978abf14600e14ab144431056fd839e06c0b3e3c4"},
	{"07ddfe4af7439f92526622c252990e53254d35d490878112f0da47a011dedab9",
		"a6413a6f96187a4aa5343960ef90bb08db0935015e4b081cead36d51df4c2400"},
	{"541e1a79cfb6c60830c586ee1a786ef6d03fe7634627e1ed98ac1c604bb34302",
		"bc267714a63c94b1c629b812c464a29e1fab441b1805bbb8e6efc93bc67f9a07"},
	{"cd18004a4ad7c6727b164954d57aa6ea204123fd4f67c17b6e61566a97693c39",
		"6057b13106db14530f05939871b01ad136755e6b418757a2d80d241475aac484"},
	{"82ec80739d3b95abbd8eb48a977ef519debef416ed2db53d3aa942bb366b7a8e",
		"3f92f67d2b1332470ef2e4924dea9827aa163a5c384d4d07c1066ae317842d3d"},
	{"59ceb8557bc19c47946162d086a5c6fbc7a0416dcea4d816541ab436db740f50",
		"adea435a6dd222e97b792142f911420c52901f9622a270ccd8e34a85647d9ec5"},
	{"e3bf18f7a10eb96ae65f57f2cbd38fe02716f8e0b4afad91127ee8d461474f88",
		"98999fce3f93e850eb1cd8bc24ffe6e47b8197046f0e46c2f76bd517e5004614"},
	{"ed54112f199cda7ebbf1d992e00f04a9c02e3fa3a17b2f54342bf2b8c726019f",
		"aa171270cfcc01c996bc6c12e3b894308ad3b5d0f6b1743540d1896c03931448"},
	{"fc13d5096c3973aeac8962fb34a8edcbd6f186fd7ee87b85648fa3b8ad3f99f5",
		"0097f2e39c61da7b252d6361169e35e062e0054a503732704348c12fb76b4cc7"},
	{"654ab26ea41773d002e3a4e475566d72e10319cf965d8ac75ac378538adaaeb0",
		"304b4cd6f31b79d221de79a667e9367216408ffd4d03e842d911d79d7f1c2608"},
	{"ffffff1c365d88e0507a1e5305569cf44075b61821566240676ae59d8ed8dd78",
		"af27fbedd8aec73f9c6bb77b41e251655e17ca9c63dcfe47d0ba79d2946055f1"},
	{"d836ed648a4b0f23222ebc67540fd25b7bbb842d7dcbb77d101d3b8f09068768",
		"cd38a0e8f5cbb7eb5096a366d389ae25c71fb9e396d98c191d41081df35b346d"},
}

// earlyStopResumeGoldens covers the early-stopped run of
// TestCheckpointResumePreservesEarlyStop with the default snapshot
// interval, killed on both sides of the convergence stop. The run merges
// 4 basic and 4 biased shards, and the stopping shard takes no core.merge
// hit, so kills 8–12 never fire and the run completes.
var earlyStopResumeGoldens = []resumeGolden{
	{"6787dcb72b1b3e0cb6ded027f73190912efca8c4c317d4cd3f27f2d077718933",
		"f1058940f15da9726c3a0fa0ee29d514411fd6b46bd29f196623d82707592a7e"},
	{"5a0c89010d368bc79accf6af50966b2b26eba48e5b02b663ade248c496faf84b",
		"11073cedc3000c40d0873c652e3538201808946cd6f96d8e005f44f14a6662ff"},
	{"887204067095d18c120b8cbefac433487381c5bf050c332c3c191f13bf7a553f",
		"dc7e8f8a23dc4af79bac1c2f81918cd5337ff24dce2852fb6bbb81eed49b845a"},
	{"9245bb9c4c1541b4947750fde975a94a8eac9086e39d6050d0ee691ee8bd8a43",
		"8ed6d63ef5d41bbc22edefd7549dda2ee606ca0813b226ce8e5893246f2002f9"},
	{"2e2c5bf23ec7a6cc7e8f508f1c5c1e82712d9fe7fba78262b7127b3953d90164",
		"7baef55faab998dde73bbab794c4067ac9a24cdca80f4691db9f48fc6c925712"},
	{"7126e6ad135cd823022d046b03ceb5b6cc3b1ca778fe72139ee8ef52b438a7f6",
		"b7a976aa117f096e7277bf80bc31cd84241eb4928b328c7ca67969625bb3bc11"},
	{"63b64667213447de116325e2017ac92f6c965d0854b397838af1f7c30aa59d33",
		"3a3a67c53bb6fdcc50ec09297f252d6c6fe16e581158f4813142aca2afa5a6b0"},
	{"none",
		"6aa5b72bf549221fa5d7e8c418dbc4b983d5ad6d04d6b86a20b8d1cdb6e67920"},
	{"none",
		"6aa5b72bf549221fa5d7e8c418dbc4b983d5ad6d04d6b86a20b8d1cdb6e67920"},
	{"none",
		"6aa5b72bf549221fa5d7e8c418dbc4b983d5ad6d04d6b86a20b8d1cdb6e67920"},
	{"none",
		"6aa5b72bf549221fa5d7e8c418dbc4b983d5ad6d04d6b86a20b8d1cdb6e67920"},
	{"none",
		"6aa5b72bf549221fa5d7e8c418dbc4b983d5ad6d04d6b86a20b8d1cdb6e67920"},
}
