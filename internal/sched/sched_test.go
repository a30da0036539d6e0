package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
)

// countingTasks builds n no-op tasks whose Run records the execution
// into a per-device slot.
func countingTasks(n int, ran []atomic.Int32) []Task {
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task{Device: i, Run: func(context.Context) error {
			ran[i].Add(1)
			return nil
		}}
	}
	return tasks
}

func TestRunRoundCompletesEveryTask(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			ran := make([]atomic.Int32, n)
			p, err := NewPool(Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res := p.RunRound(context.Background(), 1, countingTasks(n, ran))
			if len(res) != n {
				t.Fatalf("got %d results, want %d", len(res), n)
			}
			for i, r := range res {
				if r.Device != i || r.Status != StatusCompleted || r.Err != nil {
					t.Fatalf("result %d = %+v", i, r)
				}
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("device %d ran %d times", i, got)
				}
			}
		})
	}
}

func TestRunRoundSequentialMatchesParallel(t *testing.T) {
	const n = 40
	run := func(opts Options) []Result {
		ran := make([]atomic.Int32, n)
		p, err := NewPool(opts)
		if err != nil {
			t.Fatal(err)
		}
		res := p.RunRound(context.Background(), 3, countingTasks(n, ran))
		for i := range res {
			res[i].Elapsed = 0 // wall-clock differs by construction
		}
		return res
	}
	seq := run(Options{Workers: 1, FailureRate: 0.3, FailureSeed: 7})
	for _, workers := range []int{2, 4, 8} {
		par := run(Options{Workers: workers, FailureRate: 0.3, FailureSeed: 7})
		for i := range seq {
			if seq[i] != par[i] && !(errors.Is(seq[i].Err, ErrInjected) && errors.Is(par[i].Err, ErrInjected)) {
				t.Fatalf("workers=%d: result %d differs: seq=%+v par=%+v", workers, i, seq[i], par[i])
			}
		}
	}
}

func TestFailureInjectionDeterministicAndRateBounded(t *testing.T) {
	p, err := NewPool(Options{FailureRate: 0.25, FailureSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	injected := 0
	const rounds, devices = 40, 50
	for round := 1; round <= rounds; round++ {
		for d := 0; d < devices; d++ {
			a := p.injectFailure(round, d)
			b := p.injectFailure(round, d)
			if a != b {
				t.Fatalf("injection not deterministic at round %d device %d", round, d)
			}
			if a {
				injected++
			}
		}
	}
	rate := float64(injected) / float64(rounds*devices)
	if rate < 0.18 || rate > 0.32 {
		t.Fatalf("injected rate %.3f far from configured 0.25", rate)
	}
}

func TestRoundDeadlineDropsStragglers(t *testing.T) {
	// Device 0 is fast; device 1 sleeps past the deadline; device 2 blocks
	// on the context and sees the cancellation.
	// Wide margins so loaded CI runners (especially under -race) cannot
	// misclassify the fast device as a straggler.
	p, err := NewPool(Options{Workers: 3, RoundDeadline: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		{Device: 0, Run: func(context.Context) error { return nil }},
		{Device: 1, Run: func(context.Context) error { time.Sleep(900 * time.Millisecond); return nil }},
		{Device: 2, Run: func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }},
	}
	res := p.RunRound(context.Background(), 1, tasks)
	if res[0].Status != StatusCompleted {
		t.Fatalf("fast device: %+v", res[0])
	}
	if res[1].Status != StatusDropped {
		t.Fatalf("sleeping straggler: %+v", res[1])
	}
	if res[2].Status != StatusDropped || !errors.Is(res[2].Err, context.DeadlineExceeded) {
		t.Fatalf("context-aware straggler: %+v", res[2])
	}
	if got := p.Stats().Dropped.Load(); got != 2 {
		t.Fatalf("dropped stat = %d, want 2", got)
	}
}

func TestCancelledContextDropsUnstartedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := NewPool(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ran := make([]atomic.Int32, 4)
	res := p.RunRound(ctx, 1, countingTasks(4, ran))
	for i, r := range res {
		if r.Status != StatusDropped || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d = %+v", i, r)
		}
		if ran[i].Load() != 0 {
			t.Fatalf("task %d ran under a cancelled context", i)
		}
	}
}

func TestFailedStatusCarriesError(t *testing.T) {
	boom := errors.New("boom")
	p, err := NewPool(Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := p.RunRound(context.Background(), 1, []Task{
		{Device: 0, Run: func(context.Context) error { return boom }},
		{Device: 1, Run: func(context.Context) error { return nil }},
	})
	if res[0].Status != StatusFailed || !errors.Is(res[0].Err, boom) {
		t.Fatalf("failing task: %+v", res[0])
	}
	if res[1].Status != StatusCompleted {
		t.Fatalf("healthy task: %+v", res[1])
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero", Options{}, true},
		{"negative workers", Options{Workers: -1}, false},
		{"negative deadline", Options{RoundDeadline: -time.Second}, false},
		{"rate one", Options{FailureRate: 1}, false},
		{"rate negative", Options{FailureRate: -0.1}, false},
		{"rate high ok", Options{FailureRate: 0.99}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewPool(c.opts)
			if (err == nil) != c.ok {
				t.Fatalf("NewPool(%+v) err = %v, want ok=%v", c.opts, err, c.ok)
			}
		})
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 5, 100} {
		const n = 57
		hits := make([]atomic.Int32, n)
		ForEachWorker(n, workers, func(i, _ int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
			}
		}
	}
	ForEachWorker(0, 4, func(int, int) { t.Fatal("fn called for n=0") })
}

func TestStatsAccumulate(t *testing.T) {
	p, err := NewPool(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ran := make([]atomic.Int32, 6)
	p.RunRound(context.Background(), 1, countingTasks(6, ran))
	p.RunRound(context.Background(), 2, countingTasks(6, ran))
	if got := p.Stats().Rounds.Load(); got != 2 {
		t.Fatalf("rounds = %d", got)
	}
	if got := p.Stats().Completed.Load(); got != 12 {
		t.Fatalf("completed = %d", got)
	}
}

// TestBusyTimeAccumulates checks the work integral: tasks that sleep a
// known duration must surface at least that much busy time, across
// back-to-back rounds (the pipelined engine's stream shape).
func TestBusyTimeAccumulates(t *testing.T) {
	p, err := NewPool(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sleepy := func(context.Context) error { time.Sleep(4 * time.Millisecond); return nil }
	for round := 1; round <= 2; round++ {
		p.RunRound(context.Background(), round, []Task{
			{Device: 0, Run: sleepy}, {Device: 1, Run: sleepy},
		})
	}
	if got := p.Stats().BusyTime(); got < 16*time.Millisecond {
		t.Fatalf("busy time %v after 4 × 4ms tasks", got)
	}
}

// TestConcurrentRunRoundPanics pins the pool's single-stream contract:
// rounds may run back to back but never concurrently. The first round
// parks on a channel inside a task; the overlapping call must panic on
// the caller's goroutine.
func TestConcurrentRunRoundPanics(t *testing.T) {
	p, err := NewPool(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	started := make(chan struct{})
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		p.RunRound(context.Background(), 1, []Task{{Device: 0, Run: func(context.Context) error {
			close(started)
			<-block
			return nil
		}}})
	}()
	<-started
	func() {
		defer func() {
			if recover() == nil {
				t.Error("concurrent RunRound did not panic")
			}
		}()
		p.RunRound(context.Background(), 2, []Task{{Device: 1, Run: func(context.Context) error { return nil }}})
	}()
	close(block)
	<-firstDone
	// The stream is usable again once the in-flight round returns.
	ran := make([]atomic.Int32, 1)
	if res := p.RunRound(context.Background(), 3, countingTasks(1, ran)); res[0].Status != StatusCompleted {
		t.Fatalf("post-recovery round status %v", res[0].Status)
	}
}

func TestLateGenuineErrorIsFailedNotDropped(t *testing.T) {
	// A task that both misses the deadline and returns a real error must
	// surface as Failed: lateness must not swallow genuine faults.
	boom := errors.New("device exploded")
	p, err := NewPool(Options{Workers: 1, RoundDeadline: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := p.RunRound(context.Background(), 1, []Task{
		{Device: 0, Run: func(context.Context) error { time.Sleep(600 * time.Millisecond); return boom }},
	})
	if res[0].Status != StatusFailed || !errors.Is(res[0].Err, boom) {
		t.Fatalf("late failing task: %+v", res[0])
	}
}

func TestRunRoundSpreadsClusteredDevices(t *testing.T) {
	// Device ids in two clusters (0–7 and 1000–1007) must still spread
	// evenly: contiguous blocks over 4 workers give each scratch slot
	// exactly 4 of the 16 tasks, and one worker runs them all on one slot.
	tasks := make([]Task, 16)
	slots := make([]any, len(tasks))
	for i := range tasks {
		i := i
		tasks[i] = Task{Device: i%8 + i/8*1000, Run: func(ctx context.Context) error {
			slots[i] = Scratch(ctx)
			return nil
		}}
	}
	for _, tc := range []struct{ workers, perSlot int }{{4, 4}, {1, 16}} {
		p, err := NewPool(Options{Workers: tc.workers, WorkerScratch: func() any { return new(int) }})
		if err != nil {
			t.Fatal(err)
		}
		p.RunRound(context.Background(), 1, tasks)
		ran := map[any]int{}
		for _, s := range slots {
			ran[s]++
		}
		if len(ran) != tc.workers {
			t.Fatalf("workers=%d: tasks ran on %d scratch slots", tc.workers, len(ran))
		}
		for s, n := range ran {
			if s == nil || n != tc.perSlot {
				t.Fatalf("workers=%d: a slot ran %d tasks, want %d", tc.workers, n, tc.perSlot)
			}
		}
	}
}

func TestTaskInternalContextErrorIsFailedWhileRoundLive(t *testing.T) {
	// A task whose own internal timeout surfaces context.DeadlineExceeded
	// while the round context is still live is a genuine failure, not a
	// straggler drop.
	p, err := NewPool(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := p.RunRound(context.Background(), 1, []Task{
		{Device: 0, Run: func(context.Context) error {
			inner, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
			defer cancel()
			<-inner.Done()
			return fmt.Errorf("device rpc: %w", inner.Err())
		}},
	})
	if res[0].Status != StatusFailed || !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("internal timeout while round live: %+v", res[0])
	}
}

func TestPanicRecoveredAsFailure(t *testing.T) {
	// A panicking task must cost its own device a StatusFailed result
	// carrying a *PanicError with the stack — never the process.
	p, err := NewPool(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := p.RunRound(context.Background(), 1, []Task{
		{Device: 0, Run: func(context.Context) error { return nil }},
		{Device: 1, Run: func(context.Context) error { panic("device 1 bug") }},
		{Device: 2, Run: func(context.Context) error { return nil }},
	})
	if res[0].Status != StatusCompleted || res[2].Status != StatusCompleted {
		t.Fatalf("healthy devices affected: %+v", res)
	}
	if res[1].Status != StatusFailed {
		t.Fatalf("panicked device status = %v, want failed", res[1].Status)
	}
	var pe *PanicError
	if !errors.As(res[1].Err, &pe) || pe.Device != 1 || len(pe.Stack) == 0 {
		t.Fatalf("want *PanicError with device and stack, got %v", res[1].Err)
	}
	if !strings.Contains(pe.Error(), "device 1 bug") {
		t.Fatalf("panic value lost: %v", pe)
	}
}

func TestChaosWorkerPanic(t *testing.T) {
	// The sched.worker.panic failpoint injects a panic into the Nth task
	// execution; recovery turns it into exactly one failed device.
	plan, err := chaos.Parse("sched.worker.panic=on:2")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Activate(plan)
	defer chaos.Deactivate()
	p, err := NewPool(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Device: i, Run: func(context.Context) error { return nil }}
	}
	res := p.RunRound(context.Background(), 1, tasks)
	failed := 0
	for _, r := range res {
		if r.Status == StatusFailed {
			failed++
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("chaos panic not recovered as PanicError: %v", r.Err)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d devices failed, want exactly 1 (the on:2 hit)", failed)
	}
}
