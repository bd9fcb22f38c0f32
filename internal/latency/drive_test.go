package latency

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// spaced returns n due offsets step apart, starting at zero.
func spaced(n int, step time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * step
	}
	return due
}

// TestDriveOpenLoopChargesQueueing is the coordinated-omission guard: the
// only worker is held for 50ms by request 0, so requests due 1ms apart
// behind it start late, and each one's recorded latency includes that
// wait because it is measured from its due instant, not from issue.
func TestDriveOpenLoopChargesQueueing(t *testing.T) {
	const hold = 50 * time.Millisecond
	due := spaced(10, time.Millisecond)
	load := Drive(context.Background(), 1, 1, due, 0, time.Hour, func(_ context.Context, i int) (int, error) {
		if i == 0 {
			time.Sleep(hold)
		}
		return 0, nil
	})
	h := &load.OK[0]
	if h.Count() != int64(len(due)) {
		t.Fatalf("recorded %d requests, want %d", h.Count(), len(due))
	}
	// The last request is due 9ms in and cannot start before 50ms.
	if min := hold - due[len(due)-1]; h.Min() < min {
		t.Fatalf("min latency %v < %v: the queueing behind request 0 was omitted (%s)", h.Min(), min, h)
	}
}

// TestDriveWarmupRunsButIsNotRecorded: requests due inside the warm-up are
// issued, and only the later ones are recorded.
func TestDriveWarmupRunsButIsNotRecorded(t *testing.T) {
	var calls atomic.Int64
	load := Drive(context.Background(), 2, 1, spaced(10, time.Millisecond), 5*time.Millisecond, time.Hour,
		func(context.Context, int) (int, error) {
			calls.Add(1)
			return 0, nil
		})
	if calls.Load() != 10 || load.OK[0].Count() != 5 {
		t.Fatalf("issued %d, recorded %d; want 10 issued, 5 recorded", calls.Load(), load.OK[0].Count())
	}
}

// TestDriveClosedLoopStopsAtDeadline: with no schedule every worker
// issues back to back and stops issuing once warmup+run has elapsed, and
// the open loop likewise never issues a request due at or after it.
func TestDriveClosedLoopStopsAtDeadline(t *testing.T) {
	const warmup, run, req = 10 * time.Millisecond, 40 * time.Millisecond, time.Millisecond
	start := time.Now()
	load := Drive(context.Background(), 3, 1, nil, warmup, run, func(context.Context, int) (int, error) {
		time.Sleep(req)
		return 0, nil
	})
	elapsed := time.Since(start)
	if elapsed < warmup+run || elapsed > warmup+run+req+100*time.Millisecond {
		t.Fatalf("closed loop returned after %v, want about %v", elapsed, warmup+run)
	}
	if load.OK[0].Count() == 0 {
		t.Fatal("closed loop recorded nothing after the warm-up")
	}

	var calls atomic.Int64
	Drive(context.Background(), 2, 1, spaced(10, time.Millisecond), 0, 5*time.Millisecond, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	if calls.Load() != 5 {
		t.Fatalf("open loop issued %d requests due before a 5ms deadline, want 5", calls.Load())
	}
}

// TestDriveCancellation: cancelling the context ends a pass whose
// requests would block for an hour, promptly and without leaving a worker
// behind, in both loops.
func TestDriveCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, due := range [][]time.Duration{nil, spaced(1000, time.Millisecond)} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		load := Drive(ctx, 4, 1, due, 0, time.Hour, func(ctx context.Context, _ int) (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Hour):
				return 0, nil
			}
		})
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("Drive returned %v after cancellation", elapsed)
		}
		if n := load.OK[0].Count() + load.Failed[0].Count(); n != 0 {
			t.Fatalf("recorded %d requests cut off by the cancellation", n)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Drive, %d after", before, after)
	}
}

// TestDriveCountsClassesAndFailuresApart: each request lands in exactly
// one histogram, chosen by the class do returned and whether it failed.
func TestDriveCountsClassesAndFailuresApart(t *testing.T) {
	boom := errors.New("boom")
	load := Drive(context.Background(), 3, 3, make([]time.Duration, 60), 0, time.Hour, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return i % 3, boom
		}
		return i % 3, nil
	})
	for c := 0; c < 3; c++ {
		if ok, failed := load.OK[c].Count(), load.Failed[c].Count(); ok != 10 || failed != 10 {
			t.Errorf("class %d: %d ok, %d failed; want 10 each", c, ok, failed)
		}
	}
	if len(load.OK) != 3 || len(load.Failed) != 3 {
		t.Errorf("%d ok and %d failed histograms, want one per class", len(load.OK), len(load.Failed))
	}
}

func TestTargets(t *testing.T) {
	got := Targets(" http://a/ ,,http://b:1,  ")
	if want := []string{"http://a", "http://b:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Targets = %q, want %q", got, want)
	}
	if got := Targets(""); got != nil {
		t.Fatalf("Targets(\"\") = %q, want none", got)
	}
}
