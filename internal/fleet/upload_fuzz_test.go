package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
)

// rangeSpec is ripple-adder:4 at 1,024 patterns: eight shards of 128
// pairs, leased as two 4-shard ranges.
var rangeSpec = JobSpec{Module: "ripple-adder", Width: 4, Seed: 17, Patterns: 1024}

// handJob runs spec on a fresh coordinator behind a test server, four
// shards to a lease, under deadline. The hand-driven worker "hand"
// registers before the job starts, so the job does not hand back at once,
// and is granted the first range, [0,4) at epoch 1; that lease is
// returned with the channel RunJob reports on.
func handJob(t *testing.T, spec JobSpec, deadline time.Duration) (*testFleet, leaseResponse, <-chan jobResult) {
	t.Helper()
	f := newTestFleet(t, Config{LeaseShards: 4, LeaseTTL: time.Minute, WorkerTTL: time.Hour, Tick: time.Millisecond})
	if lr := leaseByHand(t, f.ts.URL, "hand"); lr.Status != statusIdle {
		t.Fatalf("lease before the job: %q, want %q", lr.Status, statusIdle)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	t.Cleanup(cancel)
	done := make(chan jobResult, 1)
	go func() {
		m, err := f.coordinator().RunJob(ctx, spec, RunOptions{})
		done <- jobResult{m, err}
	}()
	for {
		lr := leaseByHand(t, f.ts.URL, "hand")
		if lr.Status == statusLease {
			if ls := lr.Lease; ls.Start != 0 || ls.End != 4 || ls.Epoch != 1 {
				t.Fatalf("first lease %+v, want [0,4) at epoch 1", *ls)
			}
			return f, lr, done
		}
		if ctx.Err() != nil {
			t.Fatal("the job never granted a lease")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetMergesRangeAllOrNothing uploads the range [0,4) with a
// checksum-valid payload that is wrong in one place: its second result
// claims index 7, or its last result carries one negative charge. The
// coordinator accepts the bytes, and its merge must then refuse the whole
// range: folding the results before the bad one would leave the merge
// cursor inside the range, where no range starts, and the build would
// wait for its deadline. Instead the range is re-leased and the build
// finishes bit-identical to single-node Characterize.
func TestFleetMergesRangeAllOrNothing(t *testing.T) {
	want := singleNode(t, rangeSpec)
	for _, c := range []struct {
		name string
		edit func(rs []core.ShardResult)
	}{
		{"result out of place", func(rs []core.ShardResult) { rs[1].Index = 7 }},
		{"one bad sample", func(rs []core.ShardResult) { rs[3].Charges[100] = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			const deadline = 20 * time.Second
			start := time.Now()
			f, first, done := handJob(t, rangeSpec, deadline)
			job, ls := *first.Job, *first.Lease
			meter, err := job.Meter()
			if err != nil {
				t.Fatal(err)
			}
			rs, err := core.CharacterizeShardRange(meter, job.Name(), job.Options(), ls.Phase, ls.Start, ls.End)
			if err != nil {
				t.Fatal(err)
			}
			c.edit(rs)
			if code := uploadByHand(t, f.ts.URL, uploadPayload{
				Worker: "hand", JobID: ls.JobID, Phase: ls.Phase,
				Start: ls.Start, End: ls.End, Epoch: ls.Epoch, Results: rs,
			}, true); code != http.StatusOK {
				t.Fatalf("checksum-valid upload got %d, want 200", code)
			}
			res := drainByHand(t, f.ts.URL, "hand", job, meter, done)
			if res.err != nil {
				t.Fatalf("build failed after %v of its %v deadline: %v", time.Since(start), deadline, res.err)
			}
			assertSameModel(t, res.model, want, "fleet model after a refused range")
			if f.coordinator().met.zombieRejected.Value() == 0 {
				t.Fatal("the refused range was not counted")
			}
		})
	}
}

// FuzzHandleUpload POSTs arbitrary bytes, sealed with atomicio.Seal or
// not, as the upload of the leased range [0,4) of a live build of
// rangeSpec, retries it honestly and drains the build with honest
// uploads. Every input must be refused with a 4xx or accepted with a 200,
// without a panic, and the build must finish before its deadline. A
// refused upload, or an accepted one whose results equal the honest
// ones, must leave a model bit-identical to single-node Characterize.
func FuzzHandleUpload(f *testing.F) {
	want := singleNode(f, rangeSpec)
	meter, err := rangeSpec.Meter()
	if err != nil {
		f.Fatal(err)
	}
	// job is the spec as the coordinator completes it.
	job := rangeSpec
	job.InputBits = meter.NumInputBits()
	job.Fingerprint = core.Fingerprint(job.Name(), job.InputBits, job.Options())
	job.ID = job.Fingerprint
	payload := func(edit func(*uploadPayload)) []byte {
		rs, err := core.CharacterizeShardRange(meter, job.Name(), job.Options(), core.PhaseBasic, 0, 4)
		if err != nil {
			f.Fatal(err)
		}
		up := uploadPayload{Worker: "hand", JobID: job.ID, Phase: core.PhaseBasic, Start: 0, End: 4, Epoch: 1, Results: rs}
		if edit != nil {
			edit(&up)
		}
		raw, err := json.Marshal(up)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	honest := payload(nil)
	var decoded uploadPayload
	if err := json.Unmarshal(honest, &decoded); err != nil {
		f.Fatal(err)
	}
	honestResults := decoded.Results

	f.Add(honest, true)
	f.Add(payload(func(up *uploadPayload) { up.Results[1].Index = 7 }), true)
	f.Add(honest, false)
	f.Add(payload(func(up *uploadPayload) { up.Epoch = 2 }), true)
	f.Add(payload(func(up *uploadPayload) { up.Results = up.Results[:3] }), true)
	sealed := atomicio.Seal(honest)
	f.Add(sealed[:len(sealed)-5], false)
	f.Add(payload(func(up *uploadPayload) { up.Results[2].Hd[0] = 0 }), true)

	f.Fuzz(func(t *testing.T, raw []byte, seal bool) {
		body := raw
		if seal {
			body = atomicio.Seal(raw)
		}
		fl, _, done := handJob(t, rangeSpec, 20*time.Second)
		code := postUpload(t, fl.ts.URL, body)
		if code != http.StatusOK && (code < 400 || code > 499) {
			t.Fatalf("upload answered %d, want 200 or a 4xx", code)
		}
		// "hand" retries with its honest results, as a worker whose upload
		// was refused does; once an upload was accepted, the retry is
		// fenced off.
		if retry := postUpload(t, fl.ts.URL, sealed); retry != http.StatusOK && retry != http.StatusConflict {
			t.Fatalf("honest retry answered %d, want 200 or 409", retry)
		}
		res := drainByHand(t, fl.ts.URL, "hand", job, meter, done)
		if errors.Is(res.err, context.DeadlineExceeded) {
			t.Fatalf("build did not finish before its deadline (upload answered %d)", code)
		}
		var up uploadPayload
		plain, unsealErr := atomicio.Unseal(body)
		asHonest := code == http.StatusOK && unsealErr == nil &&
			json.Unmarshal(plain, &up) == nil && reflect.DeepEqual(up.Results, honestResults)
		if code != http.StatusOK || asHonest {
			if res.err != nil {
				t.Fatalf("build failed (upload answered %d): %v", code, res.err)
			}
			assertSameModel(t, res.model, want, "fleet model after the upload")
		}
	})
}
