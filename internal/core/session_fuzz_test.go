package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"hdpower/internal/dwlib"
	"hdpower/internal/power"
	"hdpower/internal/sim"
)

// The session fuzzers drive ripple-adder-4 with the enhanced table and a
// convergence tolerance the basic phase meets early, so snapshots exist
// on both sides of the early stop.
const fuzzModule = "ripple-adder-4"

func fuzzSessionOpts() CharacterizeOptions {
	return CharacterizeOptions{
		Patterns: 1280, Seed: 3, Enhanced: true,
		ConvergeTol: 0.9, CheckEvery: 256, Workers: 1,
	}
}

// plannedShards computes every planned shard of both phases once, before
// fuzzing starts: the inputs a resumed or partly merged session is fed.
func plannedShards(f *testing.F) (int, map[string][]ShardResult) {
	mod, err := dwlib.Lookup("ripple-adder")
	if err != nil {
		f.Fatal(err)
	}
	meter, err := power.NewMeter(mod.Build(4), sim.EventDriven)
	if err != nil {
		f.Fatal(err)
	}
	opt := fuzzSessionOpts()
	shards := map[string][]ShardResult{}
	for _, phase := range []string{PhaseBasic, PhaseBiased} {
		rs, err := CharacterizeShardRange(meter, fuzzModule, opt, phase, 0, NumShards(opt.Patterns))
		if err != nil {
			f.Fatal(err)
		}
		shards[phase] = rs
	}
	return meter.NumInputBits(), shards
}

// mergeNext merges the planned shard at the session's cursor.
func mergeNext(t *testing.T, s *MergeSession, shards map[string][]ShardResult) {
	t.Helper()
	if s.MergedShards() >= s.PhaseShards() || s.PhaseShards() > len(shards[s.Phase()]) {
		t.Fatalf("cursor %s/%d passed the %d-shard phase of a %d-shard plan",
			s.Phase(), s.MergedShards(), s.PhaseShards(), len(shards[s.Phase()]))
	}
	if err := s.Merge(shards[s.Phase()][s.MergedShards()]); err != nil {
		t.Fatalf("planned shard %s/%d rejected: %v", s.Phase(), s.MergedShards(), err)
	}
}

func snapshotJSON(t *testing.T, s *MergeSession) []byte {
	t.Helper()
	raw, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzResumeMergeSession decodes arbitrary bytes into a Checkpoint and
// resumes a session from it. A checkpoint the session accepts must then
// take every remaining planned shard at its cursor, never move the cursor
// past the plan, and finish without panicking.
func FuzzResumeMergeSession(f *testing.F) {
	bits, shards := plannedShards(f)
	opt := fuzzSessionOpts()
	s, err := NewMergeSession(fuzzModule, bits, opt)
	if err != nil {
		f.Fatal(err)
	}
	for k := 0; !s.Done(); k++ {
		if k%3 == 0 || s.MergedShards() == 0 {
			raw, err := json.Marshal(s.Snapshot())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
		if err := s.Merge(shards[s.Phase()][s.MergedShards()]); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var cp Checkpoint
		if json.Unmarshal(raw, &cp) != nil {
			return
		}
		s, err := ResumeMergeSession(fuzzModule, bits, opt, &cp)
		if err != nil {
			return
		}
		defer s.Close()
		for !s.Done() {
			mergeNext(t, s, shards)
		}
		_, _ = s.Finish() // garbage accumulators may fail Validate, never panic
	})
}

// FuzzMergeShardResult decodes arbitrary bytes into a ShardResult and
// merges it at a fuzzed cursor. Merge validates before it mutates: a
// rejected result must leave the session's snapshot byte-identical.
func FuzzMergeShardResult(f *testing.F) {
	bits, shards := plannedShards(f)
	opt := fuzzSessionOpts()
	for _, seed := range []struct {
		cursor uint8
		phase  string
		index  int
	}{{0, PhaseBasic, 0}, {3, PhaseBasic, 3}, {4, PhaseBiased, 0}, {6, PhaseBiased, 2}, {5, PhaseBasic, 5}} {
		raw, err := json.Marshal(shards[seed.phase][seed.index])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed.cursor, raw)
	}
	f.Fuzz(func(t *testing.T, cursor uint8, raw []byte) {
		var r ShardResult
		if json.Unmarshal(raw, &r) != nil {
			return
		}
		s, err := NewMergeSession(fuzzModule, bits, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// The run merges 8 shards; cursors past that merge into a finished
		// session, which must reject everything.
		for k := int(cursor) % 16; k > 0 && !s.Done(); k-- {
			mergeNext(t, s, shards)
		}
		before := snapshotJSON(t, s)
		if err := s.Merge(r); err != nil {
			if after := snapshotJSON(t, s); !bytes.Equal(before, after) {
				t.Fatalf("rejected result changed the session: %v", err)
			}
			return
		}
		for !s.Done() {
			mergeNext(t, s, shards)
		}
		_, _ = s.Finish()
	})
}
