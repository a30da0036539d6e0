package sched

import (
	"context"
	"sync"
	"testing"
)

// TestWorkerScratchOnePerWorker checks that every task sees a scratch,
// that at most Workers distinct scratches are created, and that a
// worker's tasks within one round share its scratch.
func TestWorkerScratchOnePerWorker(t *testing.T) {
	var mu sync.Mutex
	created := 0
	pool, err := NewPool(Options{Workers: 3, WorkerScratch: func() any {
		mu.Lock()
		created++
		mu.Unlock()
		return new(int)
	}})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]any, 64)
	tasks := make([]Task, 64)
	for i := range tasks {
		i := i
		tasks[i] = Task{Device: i, Run: func(ctx context.Context) error {
			s := Scratch(ctx)
			if s == nil {
				t.Error("task got nil scratch")
			}
			seen[i] = s
			return nil
		}}
	}
	for round := 1; round <= 3; round++ {
		for _, r := range pool.RunRound(context.Background(), round, tasks) {
			if r.Status != StatusCompleted {
				t.Fatalf("task status %v", r.Status)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if created == 0 || created > 3 {
		t.Fatalf("created %d scratches for 3 workers", created)
	}
	distinct := map[any]bool{}
	for _, s := range seen {
		distinct[s] = true
	}
	if len(distinct) == 0 || len(distinct) > 3 {
		t.Fatalf("tasks observed %d distinct scratches, want 1..3", len(distinct))
	}
}

// TestScratchSequentialAndAbsent covers the one-worker pool, which runs
// every task inline on one scratch, and pools without a factory (nil
// scratch).
func TestScratchSequentialAndAbsent(t *testing.T) {
	seq, err := NewPool(Options{Workers: 1, WorkerScratch: func() any { return new(int) }})
	if err != nil {
		t.Fatal(err)
	}
	var got []any
	tasks := []Task{
		{Device: 0, Run: func(ctx context.Context) error { got = append(got, Scratch(ctx)); return nil }},
		{Device: 1, Run: func(ctx context.Context) error { got = append(got, Scratch(ctx)); return nil }},
	}
	seq.RunRound(context.Background(), 1, tasks)
	if len(got) != 2 || got[0] == nil || got[0] != got[1] {
		t.Fatalf("one-worker pool must hand every task the same scratch, got %v", got)
	}

	plain, err := NewPool(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan any, 1)
	plain.RunRound(context.Background(), 1, []Task{{Device: 0, Run: func(ctx context.Context) error {
		done <- Scratch(ctx)
		return nil
	}}})
	if s := <-done; s != nil {
		t.Fatalf("pool without factory handed out scratch %v", s)
	}
}

// TestWorkerScratchAccessor: between rounds the pool's owner reaches the
// very scratch a slot's tasks use (created on demand for a slot no task
// has touched yet), and nothing for a pool without a factory or an index
// that is not a slot.
func TestWorkerScratchAccessor(t *testing.T) {
	created := 0
	pool, err := NewPool(Options{Workers: 2, WorkerScratch: func() any { created++; return new(int) }})
	if err != nil {
		t.Fatal(err)
	}
	var fromTask any
	pool.RunRound(context.Background(), 1, []Task{{Device: 7, Run: func(ctx context.Context) error {
		fromTask = Scratch(ctx)
		return nil
	}}})
	if got := pool.WorkerScratch(0); got == nil || got != fromTask {
		t.Fatalf("slot 0 scratch %v, the task saw %v", got, fromTask)
	}
	if s1 := pool.WorkerScratch(1); s1 == nil || s1 == fromTask || s1 != pool.WorkerScratch(1) {
		t.Fatal("slot 1 must lazily get its own, stable scratch")
	}
	if created != 2 {
		t.Fatalf("factory ran %d times for 2 slots", created)
	}
	if pool.WorkerScratch(2) != nil || pool.WorkerScratch(-1) != nil {
		t.Fatal("indices outside the slots must yield nil")
	}
	plain, err := NewPool(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.WorkerScratch(0) != nil {
		t.Fatal("pool without a factory handed out scratch")
	}
}

// TestForEachWorkerIndexContract checks index coverage, the worker-index
// bound, and that a worker index is never used by two goroutines at once.
func TestForEachWorkerIndexContract(t *testing.T) {
	const n, workers = 100, 4
	if got := EffectiveWorkers(n, workers); got != workers {
		t.Fatalf("EffectiveWorkers = %d", got)
	}
	if got := EffectiveWorkers(2, workers); got != 2 {
		t.Fatalf("EffectiveWorkers(2,4) = %d", got)
	}
	if got := EffectiveWorkers(0, workers); got != 0 {
		t.Fatalf("EffectiveWorkers(0,4) = %d", got)
	}
	covered := make([]int, n)
	busy := make([]int32, workers)
	var mu sync.Mutex
	ForEachWorker(n, workers, func(i, w int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of range", w)
		}
		mu.Lock()
		busy[w]++
		if busy[w] != 1 {
			t.Errorf("worker %d used concurrently", w)
		}
		mu.Unlock()
		covered[i]++
		mu.Lock()
		busy[w]--
		mu.Unlock()
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d run %d times", i, c)
		}
	}
}
