package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sessionModel runs the distributed pipeline in-process: compute every
// shard of each phase via CharacterizeShardRange in ranges of the given
// width, then replay them through a MergeSession. The result must be
// bit-identical to Characterize with the same options.
func sessionModel(t *testing.T, module string, width, rangeShards int, opt CharacterizeOptions) *Model {
	t.Helper()
	meter := meterFor(t, module, width)
	name := fmt.Sprintf("%s-%d", module, width)
	s, err := NewMergeSession(name, meter.NumInputBits(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		start := s.MergedShards()
		end := start + rangeShards
		if total := s.PhaseShards(); end > total {
			end = total
		}
		results, err := CharacterizeShardRange(meter, name, opt, s.Phase(), start, end)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.MergeRange(results); err != nil {
			t.Fatal(err)
		}
	}
	model, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestMergeSessionBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		opt  CharacterizeOptions
	}{
		{"basic", CharacterizeOptions{Patterns: 2000, Seed: 7}},
		{"enhanced", CharacterizeOptions{Patterns: 2000, Seed: 7, Enhanced: true, ZClusters: 3}},
		{"parallel-workers", CharacterizeOptions{Patterns: 2000, Seed: 11, Enhanced: true, Workers: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder-4", tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, rangeShards := range []int{1, 3, 128} {
				got := sessionModel(t, "ripple-adder", 4, rangeShards, tc.opt)
				if !reflect.DeepEqual(got, want) {
					gj, _ := json.Marshal(got)
					wj, _ := json.Marshal(want)
					t.Fatalf("range width %d diverges from Characterize:\n got %s\nwant %s",
						rangeShards, gj, wj)
				}
			}
		})
	}
}

// hookTrace records the observable hook sequence of a run so the session
// path can be pinned against the single-node path event for event.
func hookTrace(events *[]string) *Hooks {
	return &Hooks{
		PatternsSimulated: func(n int) { *events = append(*events, fmt.Sprintf("patterns:%d", n)) },
		ShardMerged:       func() { *events = append(*events, "shard") },
		PhaseStart: func(phase string, shards, patterns int) {
			*events = append(*events, fmt.Sprintf("start:%s:%d:%d", phase, shards, patterns))
		},
		PhaseEnd: func(phase string) { *events = append(*events, "end:"+phase) },
		Convergence: func(p int, worst float64) {
			*events = append(*events, fmt.Sprintf("conv:%d:%g", p, worst))
		},
	}
}

func TestMergeSessionHookParity(t *testing.T) {
	base := CharacterizeOptions{Patterns: 4000, Seed: 5, Enhanced: true}

	var single []string
	opt := base
	opt.Hooks = hookTrace(&single)
	if _, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder-4", opt); err != nil {
		t.Fatal(err)
	}

	var fleet []string
	opt = base
	opt.Hooks = hookTrace(&fleet)
	sessionModel(t, "ripple-adder", 4, 4, opt)

	if !reflect.DeepEqual(single, fleet) {
		t.Fatalf("hook sequences diverge:\nsingle %v\nfleet  %v", single, fleet)
	}
}

func TestMergeSessionSnapshotResume(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 3000, Seed: 9, Enhanced: true, ZClusters: 2}
	meter := meterFor(t, "ripple-adder", 4)
	want, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder-4", opt)
	if err != nil {
		t.Fatal(err)
	}

	// Drive a session partway through each phase, snapshot, resume into a
	// fresh session, and finish — at every possible cut point.
	bits := meter.NumInputBits()
	full, err := NewMergeSession("ripple-adder-4", bits, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	type cut struct {
		phase string
		index int
	}
	var cuts []cut
	var replay []ShardResult // (phase, result) stream for re-feeding resumed sessions
	var phases []string
	for !full.Done() {
		cuts = append(cuts, cut{full.Phase(), full.MergedShards()})
		rs, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, full.Phase(),
			full.MergedShards(), full.MergedShards()+1)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, full.Phase())
		replay = append(replay, rs[0])
		if err := full.Merge(rs[0]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := full.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("uncut session diverges from Characterize")
	}

	for ci, c := range cuts {
		// Rebuild state up to the cut, snapshot, resume, finish.
		s, err := NewMergeSession("ripple-adder-4", bits, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ci; i++ {
			if err := s.Merge(replay[i]); err != nil {
				t.Fatal(err)
			}
		}
		snap := s.Snapshot()
		s.Close()
		if snap.Phase != c.phase || snap.ShardsMerged != c.index {
			t.Fatalf("cut %d: snapshot cursor %s/%d, want %s/%d",
				ci, snap.Phase, snap.ShardsMerged, c.phase, c.index)
		}
		// Round-trip through JSON the way a lease ledger would store it.
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var restored Checkpoint
		if err := json.Unmarshal(raw, &restored); err != nil {
			t.Fatal(err)
		}
		r, err := ResumeMergeSession("ripple-adder-4", bits, opt, &restored)
		if err != nil {
			t.Fatalf("cut %d: resume: %v", ci, err)
		}
		for i := ci; i < len(replay); i++ {
			if phases[i] != r.Phase() || replay[i].Index != r.MergedShards() {
				t.Fatalf("cut %d: resumed cursor %s/%d, replay stream at %s/%d",
					ci, r.Phase(), r.MergedShards(), phases[i], replay[i].Index)
			}
			if err := r.Merge(replay[i]); err != nil {
				t.Fatalf("cut %d: merge after resume: %v", ci, err)
			}
		}
		m, err := r.Finish()
		if err != nil {
			t.Fatalf("cut %d: finish: %v", ci, err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("cut %d: resumed session diverges from Characterize", ci)
		}
	}
}

func TestMergeSessionRejectsBadResults(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 2000, Seed: 2, Enhanced: true}
	meter := meterFor(t, "ripple-adder", 4)
	s, err := NewMergeSession("ripple-adder-4", meter.NumInputBits(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rs, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBasic, 0, 2)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Merge(rs[1]); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order shard accepted: %v", err)
	}
	bad := rs[0]
	bad.Patterns++
	if err := s.Merge(bad); err == nil {
		t.Fatal("pattern-count mismatch accepted")
	}
	bad = rs[0]
	bad.Basic = bad.Basic[:1]
	if err := s.Merge(bad); err == nil {
		t.Fatal("truncated basic accumulators accepted")
	}
	bad = rs[0]
	bad.Enhanced = nil
	if err := s.Merge(bad); err == nil {
		t.Fatal("missing enhanced accumulators accepted")
	}

	// A range merges all or nothing: one result out of place, or one past
	// the end of the phase, refuses the results before it too.
	all, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBasic, 0, s.PhaseShards())
	if err != nil {
		t.Fatal(err)
	}
	before, _ := json.Marshal(s.Snapshot())
	if err := s.MergeRange([]ShardResult{all[0], all[2]}); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("range with a result out of place accepted: %v", err)
	}
	if err := s.MergeRange(append(all[:len(all):len(all)], all[0])); err == nil || !strings.Contains(err.Error(), "past") {
		t.Fatalf("range crossing the phase end accepted: %v", err)
	}
	if after, _ := json.Marshal(s.Snapshot()); string(after) != string(before) {
		t.Fatal("a refused range changed the session")
	}

	// Rejections must not have mutated the session: the good stream still
	// merges from shard 0.
	if s.MergedShards() != 0 {
		t.Fatalf("rejected results advanced the session to %d", s.MergedShards())
	}
	if err := s.Merge(rs[0]); err != nil {
		t.Fatalf("clean shard rejected after bad ones: %v", err)
	}
	if err := s.Merge(rs[1]); err != nil {
		t.Fatal(err)
	}
}

func TestResumeMergeSessionRejectsMismatch(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 2000, Seed: 4}
	meter := meterFor(t, "ripple-adder", 4)
	s, err := NewMergeSession("ripple-adder-4", meter.NumInputBits(), opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	s.Close()

	other := opt
	other.Seed = 5
	if _, err := ResumeMergeSession("ripple-adder-4", meter.NumInputBits(), other, snap); !IsCheckpointMismatch(err) {
		t.Fatalf("seed mismatch not rejected: %v", err)
	}
	if _, err := ResumeMergeSession("csa-multiplier-4", meter.NumInputBits(), opt, snap); !IsCheckpointMismatch(err) {
		t.Fatalf("module mismatch not rejected: %v", err)
	}
}

func TestCharacterizeShardRangeValidation(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 4)
	opt := CharacterizeOptions{Patterns: 2000, Seed: 1}
	if _, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBasic, 3, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBasic, 0, 10_000); err == nil {
		t.Fatal("out-of-plan range accepted")
	}
	if _, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBiased, 0, 1); err == nil {
		t.Fatal("biased phase accepted for a non-enhanced run")
	}
	if _, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, "warmup", 0, 1); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

func TestFingerprintPinsRunIdentity(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 2000, Seed: 1, Enhanced: true}
	fp := Fingerprint("ripple-adder-4", 8, opt)
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	if Fingerprint("ripple-adder-4", 8, opt) != fp {
		t.Fatal("fingerprint not deterministic")
	}
	seed := opt
	seed.Seed = 2
	if Fingerprint("ripple-adder-4", 8, seed) == fp {
		t.Fatal("seed change did not change fingerprint")
	}
	if Fingerprint("ripple-adder-4", 16, opt) == fp {
		t.Fatal("geometry change did not change fingerprint")
	}
}

func TestNumShardsMatchesPlan(t *testing.T) {
	if got, want := NumShards(2000), len(shardPlan(2000)); got != want {
		t.Fatalf("NumShards(2000) = %d, want %d", got, want)
	}
	def := CharacterizeOptions{}
	def.setDefaults()
	if got, want := NumShards(0), len(shardPlan(def.Patterns)); got != want {
		t.Fatalf("NumShards(0) = %d, want default-plan %d", got, want)
	}
}
