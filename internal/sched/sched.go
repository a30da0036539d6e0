// Package sched is the device-scale round scheduler: it lets a federated
// coordinator run communication rounds over N ≫ NumCPU simulated devices
// inside one process. A bounded worker pool runs a round's device tasks —
// one per distinct device — in contiguous blocks on ForEachWorker, a
// per-round deadline drops stragglers from aggregation — matching FedZKT's
// tolerance for partial participation — and seeded failure injection
// exercises device churn deterministically. Workers: 1 runs every task
// inline on the caller, in task order: it is the reference scheduler.
//
// The scheduler is deliberately free of shared mutable state between
// tasks: each task may only touch its own device, and each result slot is
// written by exactly one worker. As long as tasks honour that contract —
// and no RoundDeadline is set — a round's outcome is bit-identical for
// any worker count, which the determinism golden tests in internal/fedzkt
// rely on. A deadline makes which devices finish in time inherently
// wall-clock- and worker-count-dependent; that is its job.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// Task is one device's unit of work within a round.
type Task struct {
	// Device is the task's device id (non-negative); it keys failure
	// injection only. A round's tasks name distinct devices.
	Device int
	// Run performs the work. It must only touch state owned by Device.
	Run func(ctx context.Context) error
}

// Status classifies a task's outcome.
type Status int

// Task outcomes.
const (
	// StatusCompleted means the task ran to completion within the round
	// deadline; the device participates in aggregation.
	StatusCompleted Status = iota + 1
	// StatusFailed means the task returned a genuine error.
	StatusFailed
	// StatusDropped means the device missed the round deadline (or the
	// round was cancelled before it ran); it is excluded from aggregation
	// but keeps its local state, like a FedZKT straggler.
	StatusDropped
	// StatusInjected means the scheduler's seeded failure injection took
	// the device down for this round; its task never ran.
	StatusInjected
)

// String names the status for logs and test failure messages.
func (s Status) String() string {
	switch s {
	case StatusCompleted:
		return "completed"
	case StatusFailed:
		return "failed"
	case StatusDropped:
		return "dropped"
	case StatusInjected:
		return "injected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrInjected marks results whose device was taken down by failure
// injection.
var ErrInjected = errors.New("sched: injected device failure")

// PanicError records a panic recovered inside a device task. Workers
// recover panics into a StatusFailed result carrying one of these, so a
// single device's bug (or a chaos-injected worker panic) degrades that
// device instead of killing the whole federation; the captured stack
// preserves the debugging signal a crash would have printed.
type PanicError struct {
	Device int
	Value  any    // the recovered panic value
	Stack  []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: device %d task panicked: %v", e.Device, e.Value)
}

// Result records one task's outcome.
type Result struct {
	Device  int
	Status  Status
	Err     error
	Elapsed time.Duration
}

// Options configures a Pool. The zero value runs tasks on GOMAXPROCS
// workers with no deadline and no failure injection.
type Options struct {
	// Workers bounds the pool size; 0 means GOMAXPROCS. 1 runs every task
	// inline on the caller's goroutine, in task order: the reference
	// scheduler the determinism tests compare wider pools against.
	Workers int
	// RoundDeadline is the wall-clock budget of one round; devices whose
	// task has not completed when it expires are dropped from aggregation.
	// 0 means no deadline.
	RoundDeadline time.Duration
	// FailureRate is the probability that a given device is failure-
	// injected in a given round. The draw is a pure function of
	// (FailureSeed, round, device), so it is identical for any worker
	// count and reproducible across runs.
	FailureRate float64
	// FailureSeed seeds the failure-injection hash.
	FailureSeed uint64
	// WorkerScratch, when set, is a factory for per-worker scratch state
	// (a step-scoped tensor arena; a device rig of arenas plus live
	// modules). The pool creates at most one scratch per worker slot,
	// lazily on the slot's first task, and hands it to tasks through their
	// context (see Scratch). A worker slot runs one task at a time and
	// rounds form a single stream, so the scratch is never accessed
	// concurrently; it is reused across tasks and rounds, which is the
	// point — warmed-up scratch makes device steps allocation-free.
	// Between rounds the owner of the pool may borrow a slot's scratch
	// itself (see Pool.WorkerScratch).
	WorkerScratch func() any
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("sched: negative worker count %d", o.Workers)
	}
	if o.RoundDeadline < 0 {
		return fmt.Errorf("sched: negative round deadline %v", o.RoundDeadline)
	}
	if o.FailureRate < 0 || o.FailureRate >= 1 {
		return fmt.Errorf("sched: failure rate %v outside [0,1)", o.FailureRate)
	}
	return nil
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats counts pool activity across rounds (atomically updated, so safe
// to read concurrently with a running round). The fields are obs.Counter
// registry instruments — the same values a Pool exports over the live
// metrics endpoint — with the atomic.Int64 method set (Add/Load), so
// long-standing call sites read them unchanged.
type Stats struct {
	Rounds    obs.Counter
	Completed obs.Counter
	Failed    obs.Counter
	Dropped   obs.Counter
	Injected  obs.Counter
	// Busy accumulates the nanoseconds workers spent executing tasks —
	// the pool's work integral. Over a wall-clock interval w with W
	// workers, Busy/(W·w) is the pool's utilisation; a pipelined round
	// engine uses it to show how much device-side idle time it recovered.
	Busy obs.Counter
}

// BusyTime returns Stats.Busy as a duration.
func (s *Stats) BusyTime() time.Duration { return time.Duration(s.Busy.Load()) }

// RegisterMetrics binds the pool's cumulative counters into reg under
// fedzkt_sched_* names. Registration is last-wins, so the most recently
// constructed pool owns the names on the live endpoint.
func (p *Pool) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("fedzkt_sched_rounds_total", "scheduler rounds executed", &p.stats.Rounds)
	reg.RegisterCounter("fedzkt_sched_tasks_completed_total", "device tasks completed within deadline", &p.stats.Completed)
	reg.RegisterCounter("fedzkt_sched_tasks_failed_total", "device tasks returning a genuine error", &p.stats.Failed)
	reg.RegisterCounter("fedzkt_sched_tasks_dropped_total", "device tasks dropped as round stragglers", &p.stats.Dropped)
	reg.RegisterCounter("fedzkt_sched_tasks_injected_total", "device tasks lost to seeded failure injection", &p.stats.Injected)
	reg.RegisterGaugeFunc("fedzkt_sched_busy_seconds_total", "cumulative worker task-execution time",
		func() float64 { return p.stats.BusyTime().Seconds() })
}

// Pool is a bounded worker pool that executes one round of device tasks
// at a time. It is stateless between rounds apart from its Stats, so a
// single Pool serves a whole multi-round run.
//
// Rounds must form a single stream: RunRound may be called again as soon
// as it returns — back-to-back rounds from a pipelined engine are the
// intended workload — but never concurrently with itself: worker slots'
// scratch is unsynchronised, so a concurrent second round is a programming
// error and panics.
type Pool struct {
	opts    Options
	stats   Stats
	running atomic.Bool
	// scratch holds the lazily created per-worker-slot scratch states.
	// Slot w is only touched by ForEachWorker's worker w of the current
	// round; successive rounds are ordered by RunRound's single-stream
	// guarantee, so no lock is needed.
	scratch []any
}

// NewPool validates opts and builds a pool.
func NewPool(opts Options) (*Pool, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{opts: opts}
	if opts.WorkerScratch != nil {
		p.scratch = make([]any, opts.workers())
	}
	return p, nil
}

// scratchKey is the context key carrying a worker's scratch to its tasks.
type scratchKey struct{}

// Scratch returns the per-worker scratch state installed by the pool for
// the task's worker, or nil when the pool has no WorkerScratch factory
// (or ctx is not a task context).
func Scratch(ctx context.Context) any {
	return ctx.Value(scratchKey{})
}

// WorkerScratch returns worker slot i's scratch (created on first use, as
// for a task), or nil when the pool has no WorkerScratch factory or i is
// not a slot. It lets the pool's owner run its own between-round
// fan-outs — ForEachWorker's worker indices are slot indices — on the
// same warmed-up scratch the tasks use. It must not be called while a
// round is running: slots are unsynchronised by design.
func (p *Pool) WorkerScratch(i int) any {
	if i < 0 {
		return nil
	}
	return p.scratchFor(i)
}

// scratchFor lazily creates and returns slot i's scratch.
func (p *Pool) scratchFor(i int) any {
	if p.scratch == nil || i >= len(p.scratch) {
		return nil
	}
	if p.scratch[i] == nil {
		p.scratch[i] = p.opts.WorkerScratch()
	}
	return p.scratch[i]
}

// withScratch attaches slot i's scratch to ctx when the pool has one.
func (p *Pool) withScratch(ctx context.Context, i int) context.Context {
	if s := p.scratchFor(i); s != nil {
		return context.WithValue(ctx, scratchKey{}, s)
	}
	return ctx
}

// Stats exposes the pool's cumulative counters.
func (p *Pool) Stats() *Stats { return &p.stats }

// RunRound executes one round's tasks — which name distinct devices — and
// returns one Result per task, in task order. Failure-injected devices are
// decided up front and never run; the rest go out in contiguous blocks on
// ForEachWorker, worker w running its block in order on scratch slot w.
// The call blocks until every started task has returned — a straggler
// that outlives the deadline is awaited but reported as dropped.
func (p *Pool) RunRound(ctx context.Context, round int, tasks []Task) []Result {
	if !p.running.CompareAndSwap(false, true) {
		panic("sched: RunRound called concurrently on one Pool; rounds must form a single stream")
	}
	defer p.running.Store(false)
	results := make([]Result, len(tasks))
	pending := make([]int, 0, len(tasks))
	for i, t := range tasks {
		if p.injectFailure(round, t.Device) {
			results[i] = Result{Device: t.Device, Status: StatusInjected, Err: ErrInjected}
		} else {
			pending = append(pending, i)
		}
	}

	runCtx := ctx
	var deadlineAt time.Time
	if p.opts.RoundDeadline > 0 {
		deadlineAt = time.Now().Add(p.opts.RoundDeadline)
		var cancel context.CancelFunc
		runCtx, cancel = context.WithDeadline(ctx, deadlineAt)
		defer cancel()
	}

	// One context per worker, carrying its slot's scratch; each result
	// slot is written by exactly one worker and ForEachWorker's return
	// publishes the writes.
	workers := EffectiveWorkers(len(pending), p.opts.Workers)
	ctxs := make([]context.Context, workers)
	for w := range ctxs {
		ctxs[w] = p.withScratch(runCtx, w)
	}
	ForEachWorker(len(pending), workers, func(j, w int) {
		i := pending[j]
		results[i] = runOne(ctxs[w], tasks[i], deadlineAt)
	})

	p.stats.Rounds.Add(1)
	for _, r := range results {
		p.stats.Busy.Add(int64(r.Elapsed))
		switch r.Status {
		case StatusCompleted:
			p.stats.Completed.Add(1)
		case StatusFailed:
			p.stats.Failed.Add(1)
		case StatusDropped:
			p.stats.Dropped.Add(1)
		case StatusInjected:
			p.stats.Injected.Add(1)
		}
	}
	return results
}

// runOne executes a single task under the round context and classifies
// the outcome. A panicking task — its own bug, or the chaos
// sched.worker.panic failpoint — is recovered into a StatusFailed result
// carrying a *PanicError rather than unwinding the worker goroutine and
// killing the process: the scheduler's contract is that one device's
// fault costs that device, never the federation.
func runOne(ctx context.Context, t Task, deadlineAt time.Time) Result {
	if err := ctx.Err(); err != nil {
		// Deadline already passed (or round cancelled) before the task
		// reached its turn in its worker's block: a straggler.
		return Result{Device: t.Device, Status: StatusDropped, Err: err}
	}
	start := time.Now()
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Device: t.Device, Value: v, Stack: debug.Stack()}
			}
		}()
		if chaos.Fire(chaos.SiteWorkerPanic) {
			panic(fmt.Sprintf("chaos: injected worker panic (device %d)", t.Device))
		}
		return t.Run(ctx)
	}()
	elapsed := time.Since(start)
	late := !deadlineAt.IsZero() && time.Now().After(deadlineAt)
	switch {
	case err != nil && ctx.Err() != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)):
		// A context error only counts as a straggler drop when the round
		// context itself is done; a task's own internal timeout while the
		// round is still live is a genuine failure.
		return Result{Device: t.Device, Status: StatusDropped, Err: err, Elapsed: elapsed}
	case err != nil:
		// A genuine task error is a failure even when it also missed the
		// deadline — lateness must not swallow real faults.
		return Result{Device: t.Device, Status: StatusFailed, Err: err, Elapsed: elapsed}
	case late:
		// Finished after the bell: the work happened (device state moved)
		// but the round's aggregation won't include it.
		return Result{Device: t.Device, Status: StatusDropped, Elapsed: elapsed}
	default:
		return Result{Device: t.Device, Status: StatusCompleted, Elapsed: elapsed}
	}
}

// injectFailure decides deterministically whether (round, device) is
// failure-injected: a SplitMix64 hash mapped to [0,1) and compared to the
// rate, so the draw is independent of scheduling order.
func (p *Pool) injectFailure(round, device int) bool {
	if p.opts.FailureRate <= 0 {
		return false
	}
	h := chaos.SplitMix64(p.opts.FailureSeed ^ uint64(round)*0x9E3779B97F4A7C15 ^ uint64(device)*0xBF58476D1CE4E5B9)
	return float64(h>>11)/(1<<53) < p.opts.FailureRate
}

// EffectiveWorkers returns the number of goroutines ForEachWorker will
// actually use for n items and the given worker bound (0 means
// GOMAXPROCS) — the size callers need for per-worker scratch pools.
func EffectiveWorkers(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForEachWorker runs fn(i, worker) for every i in [0,n) on at most workers
// goroutines (0 means GOMAXPROCS) and blocks until all calls return.
// Indices are assigned in contiguous blocks, so the goroutine count — and
// therefore memory pressure — is bounded regardless of n. fn must be safe
// to call concurrently for distinct i. The worker index (0 ≤ worker <
// EffectiveWorkers(n, workers)) is held by exactly one goroutine per call,
// so fn may use it to address per-worker scratch — a step-scoped arena,
// typically — without synchronisation.
func ForEachWorker(n, workers int, fn func(i, worker int)) {
	workers = EffectiveWorkers(n, workers)
	if workers == 0 {
		return
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i, w)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}
