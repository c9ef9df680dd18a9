package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
)

// FuzzCoordinatorResume places arbitrary bytes, sealed with atomicio.Seal
// or not, at a coordinator's checkpoint path and resumes the job from
// them, with a hand-driven worker computing every range it is granted.
// No bytes may panic the coordinator or keep the build from finishing:
//   - a checkpoint the coordinator refuses degrades to a fresh build,
//     which must equal singleNode bit for bit;
//   - a checkpoint it resumes must finish exactly as a core.MergeSession
//     resumed from the same checkpoint and fed the rest of the plan does,
//     and a snapshot the build itself took must finish as singleNode.
func FuzzCoordinatorResume(f *testing.F) {
	// Two shards per phase keep checkpoints small: the fuzzer minimizes
	// every new input it finds, one build per candidate.
	spec := JobSpec{Module: "ripple-adder", Width: 2, Seed: 3, Patterns: 256, Enhanced: true}
	want := singleNode(f, spec)
	meter, err := spec.Meter()
	if err != nil {
		f.Fatal(err)
	}
	// job is the spec as the coordinator completes it.
	job := spec
	job.InputBits = meter.NumInputBits()
	opt := job.Options()
	shards := map[string][]core.ShardResult{}
	for _, phase := range []string{core.PhaseBasic, core.PhaseBiased} {
		rs, err := core.CharacterizeShardRange(meter, job.Name(), opt, phase, 0, core.NumShards(spec.Patterns))
		if err != nil {
			f.Fatal(err)
		}
		shards[phase] = rs
	}
	// replay is what a build resumed from cp must produce.
	replay := func(cp *core.Checkpoint) (*core.Model, error) {
		s, err := core.ResumeMergeSession(job.Name(), job.InputBits, opt, cp)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		for !s.Done() {
			if err := s.Merge(shards[s.Phase()][s.MergedShards()]); err != nil {
				return nil, err
			}
		}
		return s.Finish()
	}

	// honestKey names a snapshot the build itself could have taken,
	// whatever lease-epoch floor it carries.
	honestKey := func(cp core.Checkpoint) string {
		cp.LeaseEpoch = 0
		raw, _ := json.Marshal(cp)
		return string(raw)
	}

	// Seeds: the checkpoint of every merge point of both phases, sealed as
	// the coordinator writes it, one of them also unsealed, one of the
	// wrong format and one of another seed.
	honest := map[string]bool{}
	s, err := core.NewMergeSession(job.Name(), job.InputBits, opt)
	if err != nil {
		f.Fatal(err)
	}
	for k := 0; ; k++ {
		cp := s.Snapshot()
		cp.LeaseEpoch = int64(k)
		raw, err := json.Marshal(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, true)
		if k == 2 {
			f.Add(raw, false)
			other := *cp
			other.Format = "hdpower-checkpoint-v0"
			alien, _ := json.Marshal(other)
			f.Add(alien, true)
			otherOpt := opt
			otherOpt.Seed++
			foreign, err := core.NewMergeSession(job.Name(), job.InputBits, otherOpt)
			if err != nil {
				f.Fatal(err)
			}
			alien, _ = json.Marshal(foreign.Snapshot())
			foreign.Close()
			f.Add(alien, true)
		}
		honest[honestKey(*cp)] = true
		if s.Done() {
			break
		}
		if err := s.Merge(shards[s.Phase()][s.MergedShards()]); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(`{"format":"hdpower-checkpoint-v1"}`), true)

	f.Fuzz(func(t *testing.T, raw []byte, seal bool) {
		if seal {
			raw = atomicio.Seal(raw)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "job.ckpt.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		// Decode the bytes as the coordinator does, from a copy: the build
		// overwrites and finally removes its checkpoint.
		decoded := filepath.Join(dir, "decoded.json")
		if err := os.WriteFile(decoded, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, readErr := core.LoadCheckpoint(decoded)

		resumed := false
		res := runByHand(t, Config{LeaseShards: 2, LeaseTTL: time.Minute, WorkerTTL: time.Hour, Tick: time.Millisecond},
			spec, RunOptions{
				Hooks:          &core.Hooks{Resumed: func(string, int, int, int) { resumed = true }},
				CheckpointPath: path,
			})
		got, err := res.model, res.err
		if !resumed {
			if err != nil {
				t.Fatalf("fresh build after a refused checkpoint failed: %v", err)
			}
			assertSameModel(t, got, want, "fresh build after a refused checkpoint")
			return
		}
		if readErr != nil {
			t.Fatalf("build resumed from a checkpoint that does not decode: %v", readErr)
		}
		wantModel, wantErr := replay(cp)
		// Garbage accumulators can fit NaN coefficients, which DeepEqual
		// never equates; %v prints every float exactly.
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprintf("%v", got) != fmt.Sprintf("%v", wantModel) {
			t.Fatalf("resumed build diverges from a session resumed from its checkpoint:\n got %v, %v\nwant %v, %v",
				got, err, wantModel, wantErr)
		}
		if honest[honestKey(*cp)] {
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, got, want, "build resumed from its own snapshot")
		}
	})
}
