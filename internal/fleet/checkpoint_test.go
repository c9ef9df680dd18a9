package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
)

// TestFleetResumesLocalCheckpoint: a fleet job and a local
// core.Characterize of it checkpoint to one file, so the coordinator
// resumes the checkpoint an interrupted local run left, has its worker
// compute the rest, finishes bit-identical to single-node and removes the
// file.
func TestFleetResumesLocalCheckpoint(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 9, Patterns: 2000, Enhanced: true}
	want := singleNode(t, spec)
	path := filepath.Join(t.TempDir(), "job.ckpt.json")

	meter, err := spec.Meter()
	if err != nil {
		t.Fatal(err)
	}
	opt := spec.Options()
	opt.Checkpoint = core.CheckpointOptions{Path: path, Resume: true}
	faultpoint.Disarm()
	if err := faultpoint.Arm("core.merge=error:after=7"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Disarm)
	if _, err := core.Characterize(meter, spec.Name(), opt); err == nil {
		t.Fatal("local run survived its injected merge fault")
	}
	faultpoint.Disarm()

	resumedAt := -1
	res := runByHand(t, Config{LeaseShards: 4, LeaseTTL: time.Minute, WorkerTTL: time.Hour, Tick: time.Millisecond},
		spec, RunOptions{
			Hooks:          &core.Hooks{Resumed: func(_ string, shards, _, _ int) { resumedAt = shards }},
			CheckpointPath: path,
		})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if resumedAt != 7 {
		t.Fatalf("fleet job resumed at shard %d, want the local run's 7", resumedAt)
	}
	assertSameModel(t, res.model, want, "fleet model resumed from a local checkpoint")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint left behind by a finished build: %v", err)
	}
}

// TestFleetQuarantinesImpossibleCheckpoint: a checkpoint at the job's
// path with the job's own identity and a valid checksum, but one basic
// accumulator short, is quarantined to <path>.corrupt by the coordinator
// as by a local run, and the build starts from scratch and finishes
// bit-identical to single-node, leaving no checkpoint behind.
func TestFleetQuarantinesImpossibleCheckpoint(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 9, Patterns: 2000, Enhanced: true}
	want := singleNode(t, spec)
	path := filepath.Join(t.TempDir(), "job.ckpt.json")
	meter, err := spec.Meter()
	if err != nil {
		t.Fatal(err)
	}
	opt := spec.Options()
	s, err := core.NewMergeSession(spec.Name(), meter.NumInputBits(), opt)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.CharacterizeShardRange(meter, spec.Name(), opt, core.PhaseBasic, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MergeRange(rs); err != nil {
		t.Fatal(err)
	}
	cp := s.Snapshot()
	s.Close()
	cp.Basic = cp.Basic[:len(cp.Basic)-1]
	if err := atomicio.WriteJSON(path, cp); err != nil {
		t.Fatal(err)
	}
	impossible, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resumed := false
	res := runByHand(t, Config{LeaseShards: 4, LeaseTTL: time.Minute, WorkerTTL: time.Hour, Tick: time.Millisecond},
		spec, RunOptions{
			Hooks:          &core.Hooks{Resumed: func(string, int, int, int) { resumed = true }},
			CheckpointPath: path,
		})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if resumed {
		t.Error("coordinator resumed an impossible checkpoint")
	}
	assertSameModel(t, res.model, want, "fleet model after an impossible checkpoint")
	if raw, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(raw, impossible) {
		t.Errorf("impossible checkpoint not quarantined as it was: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint left behind by a finished build: %v", err)
	}
}

// TestFleetEpochFloorSurvivesLocalRun: a local run that resumes and
// rewrites a fleet run's checkpoint keeps its lease-epoch floor, so a
// coordinator resuming the file afterwards grants above every epoch the
// fleet run granted.
func TestFleetEpochFloorSurvivesLocalRun(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 5, Patterns: 3000}
	want := singleNode(t, spec)
	path := filepath.Join(t.TempDir(), "job.ckpt.json")
	cfg := Config{LeaseShards: 2, LeaseTTL: time.Hour, WorkerTTL: time.Hour, Tick: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Fleet run: a hand-driven worker, registered before the job starts so
	// the job does not hand back at once, finishes three leases and holds
	// a fourth when the coordinator stops.
	f1 := newTestFleet(t, cfg)
	leaseByHand(t, f1.ts.URL, "w")
	var merged atomic.Int64
	runCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := f1.coordinator().RunJob(runCtx, spec, RunOptions{
			Hooks:          &core.Hooks{ShardMerged: func() { merged.Add(1) }},
			CheckpointPath: path,
		})
		done <- err
	}()
	var maxEpoch int64
	lease := func(url, worker string) leaseResponse {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			if lr := leaseByHand(t, url, worker); lr.Status == statusLease {
				return lr
			}
			if time.Now().After(deadline) {
				t.Fatal("no lease granted")
			}
			time.Sleep(time.Millisecond)
		}
	}
	upload := func(url, worker string, lr leaseResponse) {
		t.Helper()
		ls := *lr.Lease
		meter, err := lr.Job.Meter()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := core.CharacterizeShardRange(meter, lr.Job.Name(), lr.Job.Options(), ls.Phase, ls.Start, ls.End)
		if err != nil {
			t.Fatal(err)
		}
		if code := uploadByHand(t, url, uploadPayload{
			Worker: worker, JobID: ls.JobID, Phase: ls.Phase,
			Start: ls.Start, End: ls.End, Epoch: ls.Epoch, Results: rs,
		}, true); code != http.StatusOK {
			t.Fatalf("upload of [%d,%d) got %d, want 200", ls.Start, ls.End, code)
		}
	}
	for i := 0; i < 4; i++ {
		lr := lease(f1.ts.URL, "w")
		maxEpoch = max(maxEpoch, lr.Lease.Epoch)
		if i < 3 {
			upload(f1.ts.URL, "w", lr)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); merged.Load() < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("fleet run merged %d shards, want 6", merged.Load())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if err := <-done; err == nil {
		t.Fatal("stopped fleet run returned a nil error")
	}

	// Local run: resume the fleet run's checkpoint, merge three more
	// shards and stop, rewriting the checkpoint.
	meter, err := spec.Meter()
	if err != nil {
		t.Fatal(err)
	}
	opt := spec.Options()
	opt.Checkpoint = core.CheckpointOptions{Path: path, Resume: true}
	localResumedAt := -1
	opt.Hooks = &core.Hooks{Resumed: func(_ string, shards, _, _ int) { localResumedAt = shards }}
	var polls atomic.Int64
	errStop := errors.New("stop")
	opt.Interrupt = func() error {
		if polls.Add(1) == 3 {
			return errStop
		}
		return nil
	}
	if _, err := core.Characterize(meter, spec.Name(), opt); !errors.Is(err, errStop) {
		t.Fatalf("local run = %v, want it stopped after three shards", err)
	}
	if localResumedAt != 6 {
		t.Fatalf("local run resumed at shard %d, want the fleet run's 6", localResumedAt)
	}

	// A coordinator resuming the rewritten checkpoint grants above every
	// epoch of the fleet run and finishes bit-identical to single-node.
	f3 := newTestFleet(t, cfg)
	leaseByHand(t, f3.ts.URL, "w3")
	resumedAt := -1
	res := make(chan jobResult, 1)
	go func() {
		m, err := f3.coordinator().RunJob(ctx, spec, RunOptions{
			Hooks:          &core.Hooks{Resumed: func(_ string, shards, _, _ int) { resumedAt = shards }},
			CheckpointPath: path,
		})
		res <- jobResult{m, err}
	}()
	first := lease(f3.ts.URL, "w3")
	if first.Lease.Epoch <= maxEpoch {
		t.Fatalf("first lease after the local run has epoch %d, want above the fleet run's %d",
			first.Lease.Epoch, maxEpoch)
	}
	upload(f3.ts.URL, "w3", first)
	meter3, err := first.Job.Meter()
	if err != nil {
		t.Fatal(err)
	}
	out := drainByHand(t, f3.ts.URL, "w3", *first.Job, meter3, res)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if resumedAt != 9 {
		t.Fatalf("coordinator resumed at shard %d, want the local run's 9", resumedAt)
	}
	assertSameModel(t, out.model, want, "fleet model after a local run in between")
}

// TestFleetLocalDegradation: no worker ever registers, so the job returns
// ErrNoWorkers for its caller to build locally, and leaves nothing behind
// that a local build would pick up: it grants no lease, a late worker
// finds no job, and no checkpoint file exists.
func TestFleetLocalDegradation(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 11, Patterns: 2000, Enhanced: true}
	path := filepath.Join(t.TempDir(), "job.ckpt.json")
	f := newTestFleet(t, Config{LeaseShards: 4, Tick: time.Millisecond})
	c := f.coordinator()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.RunJob(ctx, spec, RunOptions{CheckpointPath: path}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("worker-less job = %v, want ErrNoWorkers", err)
	}
	if c.met.leasesGranted.Value() != 0 {
		t.Fatal("leases granted with no workers registered")
	}
	if lr := leaseByHand(t, f.ts.URL, "late"); lr.Status != statusIdle {
		t.Errorf("a worker after the hand-back got %q, want %q", lr.Status, statusIdle)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("worker-less job wrote a checkpoint: %v", err)
	}
}

// TestFleetLocalStartsWithoutTick: a job with no workers hands back to its
// caller's local build at once instead of after the coordinator's first
// tick, so even an hour-long tick does not hold it up, and it starts no
// phase first.
func TestFleetLocalStartsWithoutTick(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 3, Patterns: 1280}
	c := NewCoordinator(Config{Tick: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	phases := 0
	start := time.Now()
	_, err := c.RunJob(ctx, spec, RunOptions{
		Hooks: &core.Hooks{PhaseStart: func(string, int, int) { phases++ }},
	})
	if !errors.Is(err, ErrNoWorkers) || time.Since(start) > time.Second {
		t.Fatalf("worker-less job under an hour-long tick = %v after %v, want ErrNoWorkers at once",
			err, time.Since(start))
	}
	if phases != 0 {
		t.Errorf("worker-less job started %d phases, want none", phases)
	}
}

// TestFleetHandsBackWhenWorkersStop: a job whose only worker falls silent
// mid-build merges the ranges it uploaded, saves its checkpoint with the
// lease-epoch floor and returns ErrNoWorkers once WorkerTTL has passed. A
// local core.Characterize resumes the checkpoint at the merge cursor and
// finishes bit-identical to single-node.
func TestFleetHandsBackWhenWorkersStop(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 11, Patterns: 2000, Enhanced: true}
	want := singleNode(t, spec)
	path := filepath.Join(t.TempDir(), "job.ckpt.json")
	meter, err := spec.Meter()
	if err != nil {
		t.Fatal(err)
	}
	// The worker's results are computed up front, so its RPCs follow each
	// other well inside WorkerTTL.
	rs, err := core.CharacterizeShardRange(meter, spec.Name(), spec.Options(), core.PhaseBasic, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workerTTL = 300 * time.Millisecond
	f := newTestFleet(t, Config{LeaseShards: 4, LeaseTTL: time.Hour, WorkerTTL: workerTTL, Tick: time.Millisecond})
	leaseByHand(t, f.ts.URL, "hand")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := f.coordinator().RunJob(ctx, spec, RunOptions{CheckpointPath: path})
		done <- err
	}()

	// The worker uploads [0,4) and [4,8), then falls silent holding [8,12).
	lr := leaseByHand(t, f.ts.URL, "hand")
	for lr.Status != statusLease {
		if ctx.Err() != nil {
			t.Fatal("the job never granted a lease")
		}
		time.Sleep(time.Millisecond)
		lr = leaseByHand(t, f.ts.URL, "hand")
	}
	var silent time.Time
	for i := 0; ; i++ {
		if ls := lr.Lease; ls.Phase != core.PhaseBasic || ls.Start != 4*i || ls.End != 4*i+4 || ls.Epoch != int64(i+1) {
			t.Fatalf("lease %d is %+v, want [%d,%d) of the basic phase at epoch %d", i, *ls, 4*i, 4*i+4, i+1)
		}
		if i == 2 {
			break
		}
		if code := uploadByHand(t, f.ts.URL, uploadPayload{
			Worker: "hand", JobID: lr.Lease.JobID, Phase: lr.Lease.Phase,
			Start: lr.Lease.Start, End: lr.Lease.End, Epoch: lr.Lease.Epoch, Results: rs[4*i : 4*i+4],
		}, true); code != http.StatusOK {
			t.Fatalf("upload %d got %d, want 200", i, code)
		}
		silent = time.Now()
		lr = leaseByHand(t, f.ts.URL, "hand")
	}
	if err := <-done; !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("job whose worker stopped = %v, want ErrNoWorkers", err)
	}
	if waited := time.Since(silent); waited < workerTTL {
		t.Errorf("job handed back %v after its worker's last RPC, before the %v WorkerTTL", waited, workerTTL)
	}
	cp, err := core.LoadCheckpoint(path)
	if err != nil || cp.Phase != core.PhaseBasic || cp.ShardsMerged != 8 || cp.LeaseEpoch != 3 {
		t.Fatalf("handed-back checkpoint: %+v, %v; want 8 basic shards merged at lease epoch 3", cp, err)
	}

	opt := spec.Options()
	opt.Checkpoint = core.CheckpointOptions{Path: path, Resume: true}
	resumedAt := -1
	opt.Hooks = &core.Hooks{Resumed: func(_ string, shards, _, _ int) { resumedAt = shards }}
	got, err := core.Characterize(meter, spec.Name(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumedAt != 8 {
		t.Fatalf("local build resumed at shard %d, want the fleet's 8", resumedAt)
	}
	assertSameModel(t, got, want, "local build resumed from a handed-back fleet job")
}
