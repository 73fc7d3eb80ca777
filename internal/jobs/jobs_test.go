package jobs

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSubmitRunsAll(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	p := New(Config{Workers: 4, QueueSize: 32, Recorder: rec})
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		if err := p.Submit(func(context.Context) {
			defer wg.Done()
			ran.Add(1)
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran = %d, want 20", got)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	snap := rec.Snapshot()
	if snap.Counters["jobs_submitted_total"] != 20 {
		t.Errorf("jobs_submitted_total = %d", snap.Counters["jobs_submitted_total"])
	}
	if snap.Counters["jobs_completed_total"] != 20 {
		t.Errorf("jobs_completed_total = %d", snap.Counters["jobs_completed_total"])
	}
}

func TestBackpressureWithoutJobLoss(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	p := New(Config{Workers: 1, QueueSize: 2, Recorder: rec})

	// Block the single worker so queued jobs stay queued.
	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func(context.Context) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	var ran atomic.Int64
	accepted := 0
	for p.Submit(func(context.Context) { ran.Add(1) }) == nil {
		accepted++
		if accepted > 2 {
			t.Fatal("queue accepted more than its capacity")
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted = %d, want 2 (QueueSize)", accepted)
	}
	if err := p.Submit(func(context.Context) {}); err != ErrQueueFull {
		t.Fatalf("saturated submit err = %v, want ErrQueueFull", err)
	}

	// Releasing the worker must run every accepted job: rejection sheds
	// only the rejected submission, never accepted ones.
	close(release)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := ran.Load(); got != int64(accepted) {
		t.Fatalf("ran = %d, want %d accepted jobs", got, accepted)
	}
	if got := rec.Snapshot().Counters["jobs_rejected_total"]; got < 1 {
		t.Errorf("jobs_rejected_total = %d, want >= 1", got)
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	t.Parallel()
	p := New(Config{Workers: 2, QueueSize: 16})
	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		if err := p.Submit(func(context.Context) {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := ran.Load(); got != 10 {
		t.Fatalf("drain ran %d jobs, want all 10", got)
	}
	if err := p.Submit(func(context.Context) {}); err != ErrClosed {
		t.Fatalf("post-shutdown submit err = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsRunningJobs(t *testing.T) {
	t.Parallel()
	p := New(Config{Workers: 1, QueueSize: 4})
	cancelled := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		close(cancelled)
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("running job's context was not cancelled on deadline")
	}
}

func TestJobTimeout(t *testing.T) {
	t.Parallel()
	p := New(Config{Workers: 1, QueueSize: 1, JobTimeout: 10 * time.Millisecond})
	timedOut := make(chan error, 1)
	if err := p.Submit(func(ctx context.Context) {
		select {
		case <-ctx.Done():
			timedOut <- ctx.Err()
		case <-time.After(5 * time.Second):
			timedOut <- nil
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-timedOut:
		if err != context.DeadlineExceeded {
			t.Fatalf("job ctx err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("job did not observe its timeout")
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestTimeoutAndPanicDoNotLeakWorkers pins the regression where a
// panicking job killed its worker (permanently shrinking the pool) and
// leaked its timeout context's timer goroutine. The pool must keep its
// full capacity through panics and timed-out jobs, and the process
// goroutine count must return to its pre-pool baseline after Shutdown.
func TestTimeoutAndPanicDoNotLeakWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()

	rec := obs.NewRecorder()
	p := New(Config{Workers: 2, QueueSize: 32, JobTimeout: 5 * time.Millisecond, Recorder: rec})

	// Panicking jobs and jobs that run to their timeout, interleaved.
	var timedOut atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(2)
		if err := p.Submit(func(context.Context) {
			defer wg.Done()
			panic("synthetic scan crash")
		}); err != nil {
			t.Fatalf("submit panicker %d: %v", i, err)
		}
		if err := p.Submit(func(ctx context.Context) {
			defer wg.Done()
			<-ctx.Done()
			timedOut.Add(1)
		}); err != nil {
			t.Fatalf("submit sleeper %d: %v", i, err)
		}
	}
	wg.Wait()

	// Both workers survived every panic: a fresh job still runs.
	ran := make(chan struct{})
	if err := p.Submit(func(context.Context) { close(ran) }); err != nil {
		t.Fatalf("post-panic submit: %v", err)
	}
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("pool stopped running jobs after panics")
	}
	if got := timedOut.Load(); got != 10 {
		t.Errorf("timed-out jobs observed = %d, want 10", got)
	}

	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// A worker updates the counters and the gauge only after its job
	// returns, so read them once Shutdown has waited every worker out.
	snap := rec.Snapshot()
	if got := snap.Counters["jobs_panics_total"]; got != 10 {
		t.Errorf("jobs_panics_total = %d, want 10", got)
	}
	if got := snap.Gauges["jobs_in_flight"]; got != 0 {
		t.Errorf("jobs_in_flight = %v, want 0", got)
	}
	// Timer goroutines from expired job contexts unwind asynchronously;
	// poll briefly for the count to settle back to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after shutdown, baseline %d: worker or timer leak",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDefaults(t *testing.T) {
	t.Parallel()
	p := New(Config{})
	if p.Workers() < 1 {
		t.Errorf("default workers = %d", p.Workers())
	}
	if cap(p.queue) != 64 {
		t.Errorf("default queue size = %d, want 64", cap(p.queue))
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
