package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

	// One malformed sample refuses its whole range: the good first result
	// is not folded either.
	before, _ := json.Marshal(s.Snapshot())
	m := meter.NumInputBits()
	const j = 77
	for _, c := range []struct {
		name string
		edit func(r *ShardResult)
	}{
		{"Hd 0", func(r *ShardResult) { r.Hd[j] = 0 }},
		{"Hd m+1", func(r *ShardResult) { r.Hd[j] = m + 1 }},
		{"stable zeros above m-Hd", func(r *ShardResult) { r.StableZeros[j] = m - r.Hd[j] + 1 }},
		{"negative stable zeros", func(r *ShardResult) { r.StableZeros[j] = -1 }},
		{"NaN charge", func(r *ShardResult) { r.Charges[j] = math.NaN() }},
		{"+Inf charge", func(r *ShardResult) { r.Charges[j] = math.Inf(1) }},
		{"-Inf charge", func(r *ShardResult) { r.Charges[j] = math.Inf(-1) }},
		{"negative charge", func(r *ShardResult) { r.Charges[j] = -0.1 }},
		{"Hd one short", func(r *ShardResult) { r.Hd = r.Hd[:len(r.Hd)-1] }},
		{"stable zeros one short", func(r *ShardResult) { r.StableZeros = r.StableZeros[:len(r.StableZeros)-1] }},
		{"charges one short", func(r *ShardResult) { r.Charges = r.Charges[:len(r.Charges)-1] }},
		{"no stable zeros", func(r *ShardResult) { r.StableZeros = nil }},
	} {
		bad := cloneResult(rs[1])
		c.edit(&bad)
		if err := s.MergeRange([]ShardResult{rs[0], bad}); err == nil {
			t.Errorf("%s: range accepted", c.name)
		}
		if after, _ := json.Marshal(s.Snapshot()); string(after) != string(before) {
			t.Fatalf("%s: a refused range changed the session", c.name)
		}
	}

	// Stable-zero counts belong to enhanced runs only.
	basicOpt := CharacterizeOptions{Patterns: 2000, Seed: 2}
	bs, err := NewMergeSession("ripple-adder-4", m, basicOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	brs, err := CharacterizeShardRange(meter, "ripple-adder-4", basicOpt, PhaseBasic, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad = cloneResult(brs[0])
	bad.StableZeros = rs[0].StableZeros
	if err := bs.Merge(bad); err == nil || !strings.Contains(err.Error(), "basic-only") {
		t.Fatalf("stable-zero counts accepted in a basic-only run: %v", err)
	}
	if err := bs.Merge(brs[0]); err != nil {
		t.Fatalf("clean basic-only shard rejected: %v", err)
	}

	// A range merges all or nothing: one result out of place, or one past
	// the end of the phase, refuses the results before it too.
	all, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBasic, 0, s.PhaseShards())
	if err != nil {
		t.Fatal(err)
	}
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

// cloneResult copies r's sample arrays, so editing the copy leaves r as
// it was.
func cloneResult(r ShardResult) ShardResult {
	r.Hd, r.StableZeros, r.Charges = slices.Clone(r.Hd), slices.Clone(r.StableZeros), slices.Clone(r.Charges)
	return r
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

// TestResumeBasicRunIgnoresEnhancedRows resumes a basic-only run from a
// snapshot that also carries enhanced rows, as a foreign or hand-edited
// checkpoint may: the rows are ignored, as they always were, and the run
// finishes as if they were absent.
func TestResumeBasicRunIgnoresEnhancedRows(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 512, Seed: 4}
	want := sessionModel(t, "ripple-adder", 4, 4, opt)
	meter := meterFor(t, "ripple-adder", 4)
	s, err := NewMergeSession("ripple-adder-4", meter.NumInputBits(), opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	s.Close()
	snap.EnhancedAcc = [][]AccState{{{Count: 1, Sum: 2}}}
	r, err := ResumeMergeSession("ripple-adder-4", meter.NumInputBits(), opt, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBasic, 0, r.PhaseShards())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.MergeRange(rs); err != nil {
		t.Fatal(err)
	}
	got, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed model differs from the uninterrupted one")
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

// TestResumeCarriesLeaseEpoch: a session resumed from a checkpoint
// carries the checkpoint's lease-epoch floor into its snapshots, before
// and after merging, and a negative floor fails the sanity check, so a
// fleet coordinator never grants below an epoch it granted before.
func TestResumeCarriesLeaseEpoch(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 512, Seed: 1}
	meter := meterFor(t, "ripple-adder", 4)
	s, err := NewMergeSession("ripple-adder-4", meter.NumInputBits(), opt)
	if err != nil {
		t.Fatal(err)
	}
	cp := s.Snapshot()
	s.Close()
	cp.LeaseEpoch = -1
	if _, err := ResumeMergeSession("ripple-adder-4", meter.NumInputBits(), opt, cp); err == nil {
		t.Fatal("negative lease epoch accepted")
	}
	cp.LeaseEpoch = 3
	r, err := ResumeMergeSession("ripple-adder-4", meter.NumInputBits(), opt, cp)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBasic, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.MergeRange(rs); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().LeaseEpoch; got != 3 {
		t.Fatalf("snapshot after merging carries lease epoch %d, want 3", got)
	}
}

// TestCloseSavesWhatTheFileLacks: Close snapshots a session that merged
// shards or granted lease epochs since its last snapshot, and writes
// nothing for one whose file already holds its state, so a lease-epoch
// floor raised after the last merged range survives a coordinator stop.
func TestCloseSavesWhatTheFileLacks(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 512, Seed: 1}
	meter := meterFor(t, "ripple-adder", 4)
	path := filepath.Join(t.TempDir(), "ck.json")
	saves := 0
	opt.Hooks = &Hooks{CheckpointSaved: func(err error) {
		if err != nil {
			t.Errorf("checkpoint save failed: %v", err)
		}
		saves++
	}}
	opt.Checkpoint = CheckpointOptions{Path: path, EveryShards: 2, Resume: true}
	rs, err := CharacterizeShardRange(meter, "ripple-adder-4", opt, PhaseBasic, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *MergeSession {
		t.Helper()
		s, err := NewMergeSession("ripple-adder-4", meter.NumInputBits(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	saved := func() *Checkpoint {
		t.Helper()
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}

	s := open()
	if err := s.MergeRange(rs[:2]); err != nil {
		t.Fatal(err)
	}
	if s.NextLeaseEpoch() != 1 || s.NextLeaseEpoch() != 2 {
		t.Fatal("a fresh session does not grant epochs 1, 2")
	}
	s.Close()
	if cp := saved(); saves != 2 || cp.ShardsMerged != 2 || cp.LeaseEpoch != 2 {
		t.Fatalf("after %d saves the file holds %d shards at epoch %d, want 2 saves, 2 shards at epoch 2",
			saves, cp.ShardsMerged, cp.LeaseEpoch)
	}

	s = open()
	if got := s.NextLeaseEpoch(); got != 3 {
		t.Fatalf("resumed session grants epoch %d, want 3", got)
	}
	if err := s.Merge(rs[2]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if cp := saved(); saves != 3 || cp.ShardsMerged != 3 || cp.LeaseEpoch != 3 {
		t.Fatalf("after %d saves the file holds %d shards at epoch %d, want 3 saves, 3 shards at epoch 3",
			saves, cp.ShardsMerged, cp.LeaseEpoch)
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open().Close()
	if after, err := os.ReadFile(path); saves != 3 || err != nil || !bytes.Equal(after, before) {
		t.Fatalf("closing an unchanged session wrote its file (%d saves, %v)", saves, err)
	}
}
