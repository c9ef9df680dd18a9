package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
)

// TestFleetChaos is the acceptance test for the distributed
// characterization fleet: a 3-worker build survives armed fleet.* fault
// points (failed lease grants, torn uploads, dropped heartbeats, merge
// stalls), two worker kills mid-lease, AND a coordinator crash with
// restart from its checkpoint — and the converged model is still
// bit-identical to a single-node core.Characterize of the same spec.
//
// The CI chaos job re-runs this test with the fleet.* points armed in
// slow mode via HDPOWER_FAULTPOINTS on top of the error modes armed
// here (Arm replaces the env arming for the process, so the run below
// stays deterministic either way).
func TestFleetChaos(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 13, Patterns: 6000,
		Enhanced: true, ZClusters: 3}
	want := singleNode(t, spec)
	ckptPath := filepath.Join(t.TempDir(), "chaos.ckpt.json")

	// Error-mode chaos on every fleet point. Seeded so the schedule of
	// injected failures is reproducible; the lease/retry machinery must
	// absorb all of them.
	// core.shard in slow mode stretches range compute past the heartbeat
	// interval (TTL/3), so the heartbeat path — including its injected
	// drops — is actually exercised rather than outrun.
	faultpoint.Seed(1)
	if err := faultpoint.Arm("fleet.lease=error:p=0.15;fleet.upload=error:p=0.25;" +
		"fleet.heartbeat=error:p=0.2;fleet.merge=error:p=0.1;" +
		"core.shard=slow:p=1.0:delay=50ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Disarm)

	// Leases are short, so the ranges of killed workers re-lease fast, and
	// liveness is long: dropped RPCs cannot make the survivor look dead
	// and the job hand back.
	cfg := Config{
		LeaseShards: 4,
		LeaseTTL:    250 * time.Millisecond,
		WorkerTTL:   time.Minute,
		Tick:        5 * time.Millisecond,
	}
	f := newTestFleet(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var merged atomic.Int64
	hooks := &core.Hooks{ShardMerged: func() { merged.Add(1) }}

	// Round 1: three workers, a coordinator that will be "crashed"
	// (context-cancelled after the checkpoint has real progress).
	kills := startWorkers(t, ctx, f.ts.URL, 3)
	waitWorkers(t, f.coordinator(), 3)
	runCtx, crash := context.WithCancel(ctx)
	defer crash()
	done := make(chan error, 1)
	go func() {
		_, err := f.coordinator().RunJob(runCtx, spec, RunOptions{Hooks: hooks, CheckpointPath: ckptPath})
		done <- err
	}()

	waitMerged := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); merged.Load() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("stuck at %d merged shards waiting for %d", merged.Load(), n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Kill workers mid-build: their in-flight leases die with them and
	// must expire and re-lease to the survivors.
	waitMerged(4)
	kills[0]()
	waitMerged(8)
	kills[1]()

	// Crash the coordinator once there is meaningful checkpoint state.
	waitMerged(12)
	crash()
	if err := <-done; err == nil {
		t.Fatal("crashed coordinator returned a nil error")
	}

	// Round 2: a brand-new coordinator process-equivalent resumes from
	// the checkpoint at the same URL; the surviving worker plus one
	// replacement finish the build under the same chaos.
	c2 := NewCoordinator(cfg)
	f.cur.Store(c2)
	startWorkers(t, ctx, f.ts.URL, 1)
	waitWorkers(t, c2, 2)

	var resumedFrom atomic.Int64
	got, err := c2.RunJob(ctx, spec, RunOptions{
		Hooks: &core.Hooks{
			Resumed: func(phase string, shards, pb, pbias int) { resumedFrom.Store(int64(shards)) },
		},
		CheckpointPath: ckptPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumedFrom.Load() == 0 {
		t.Fatal("restarted coordinator built from scratch instead of resuming the checkpoint")
	}
	assertSameModel(t, got, want, "post-chaos fleet model")

	// The chaos actually happened: every armed point fired, and the
	// recovery paths it exercises left their marks.
	for _, p := range []string{"fleet.lease", "fleet.upload", "fleet.heartbeat", "fleet.merge"} {
		if faultpoint.Hits(p) == 0 {
			t.Errorf("fault point %s never hit", p)
		}
	}
	t.Logf("chaos summary: lease_hits=%d upload_hits=%d heartbeat_hits=%d merge_hits=%d resumed_from=%d",
		faultpoint.Hits("fleet.lease"), faultpoint.Hits("fleet.upload"),
		faultpoint.Hits("fleet.heartbeat"), faultpoint.Hits("fleet.merge"), resumedFrom.Load())
}

// TestFleetChaosWorkerChurn hammers the re-lease path specifically:
// workers are killed and replaced continuously while the build runs, with
// no coordinator restart, so every range is likely to be leased more than
// once. The model must still come out bit-identical.
func TestFleetChaosWorkerChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn loop is slow under -short")
	}
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 21, Patterns: 5000, Enhanced: true}
	want := singleNode(t, spec)

	faultpoint.Seed(2)
	if err := faultpoint.Arm("fleet.upload=error:p=0.2;fleet.heartbeat=error:p=0.3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Disarm)

	// Liveness outlasts the build: between one worker's kill and its
	// replacement's first RPC the job must not hand back.
	f := newTestFleet(t, Config{
		LeaseShards: 2,
		LeaseTTL:    150 * time.Millisecond,
		WorkerTTL:   time.Minute,
		Tick:        5 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	done := make(chan struct{})
	go func() { // churn: kill a worker and start a fresh one every 100ms
		defer close(done)
		gen := 0
		for {
			wctx, wcancel := context.WithCancel(ctx)
			w, err := NewWorker(WorkerConfig{
				Coordinator: f.ts.URL, Name: fmt.Sprintf("churn%d", gen), Workers: 2,
				RetryBase: 5 * time.Millisecond, PollInterval: 10 * time.Millisecond,
			})
			if err != nil {
				panic(err)
			}
			go w.Run(wctx)
			gen++
			select {
			case <-ctx.Done():
				wcancel()
				return
			case <-time.After(100 * time.Millisecond):
			}
			wcancel()
		}
	}()

	waitWorkers(t, f.coordinator(), 1)
	got, err := f.coordinator().RunJob(ctx, spec, RunOptions{})
	cancel()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, got, want, "churned fleet model")
	if f.coordinator().met.leasesExpired.Value() == 0 {
		t.Log("note: churn run completed without any lease expiry (fast machine)")
	}
}
