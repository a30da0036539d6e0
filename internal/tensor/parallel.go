package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the minimum number of multiply-adds before a matmul
// is split across the parallel executor; below this the dispatch overhead
// dominates. A variable so tests can lower it and force tiny operands
// through the parallel path.
var parallelThreshold = 1 << 17

// Parallel is the executor large kernels fan out on. Width is the
// executor's worker count (1 disables fan-out); Do runs fn(b) for every
// b in [0, blocks) — possibly concurrently — and returns once all blocks
// have completed. Implementations must run every block exactly once.
//
// Kernels built on it split their output into disjoint contiguous row
// blocks whose boundaries are a pure function of the work size and the
// executor's width, and every block is computed by the same serial
// kernel; which worker runs a block therefore never affects a single
// bit of the result.
type Parallel interface {
	Width() int
	Do(blocks int, fn func(block int))
}

// goParallel is the default executor: plain goroutine fan-out sized by
// GOMAXPROCS, the caller running block 0 inline.
type goParallel struct{}

func (goParallel) Width() int { return runtime.GOMAXPROCS(0) }

func (goParallel) Do(blocks int, fn func(block int)) {
	var wg sync.WaitGroup
	wg.Add(blocks - 1)
	for b := 1; b < blocks; b++ {
		go func(b int) {
			defer wg.Done()
			fn(b)
		}(b)
	}
	fn(0)
	wg.Wait()
}

// parallelBox wraps the installed executor so it can be swapped
// atomically (interface values cannot be stored in an atomic.Pointer
// directly).
type parallelBox struct{ p Parallel }

var parallelExec atomic.Pointer[parallelBox]

// SetParallel installs the executor kernels fan out on; nil restores the
// default goroutine executor. Schedulers install a worker gang here (see
// internal/sched) so kernel row blocks run on pool workers that would
// otherwise sit idle. Swapping executors never changes results — only
// where the blocks run.
func SetParallel(p Parallel) {
	if p == nil {
		parallelExec.Store(nil)
		return
	}
	parallelExec.Store(&parallelBox{p: p})
}

func currentParallel() Parallel {
	if box := parallelExec.Load(); box != nil {
		return box.p
	}
	return goParallel{}
}

// rowsParallel reports whether a row loop of the given size would fan out
// across the executor. Kernels consult it before building the closure for
// parallelRows, so the serial path — the common case for training-step
// sized operands — allocates nothing.
func rowsParallel(rows, workPerRow int) bool {
	return rows > 1 && rows*workPerRow >= parallelThreshold && currentParallel().Width() > 1
}

// parallelRows runs fn over [0,rows) split into contiguous row blocks on
// the installed executor when rows*workPerRow exceeds parallelThreshold;
// otherwise it runs fn serially. The block plan is deterministic: blocks =
// min(width, rows) and block b covers [b*rows/blocks, (b+1)*rows/blocks),
// so every output row belongs to exactly one block regardless of which
// worker ends up running it. fn must be safe to run concurrently on
// disjoint ranges.
func parallelRows(rows, workPerRow int, fn func(lo, hi int)) {
	if rows <= 0 {
		return
	}
	p := currentParallel()
	blocks := p.Width()
	if blocks > rows {
		blocks = rows
	}
	if blocks <= 1 || rows*workPerRow < parallelThreshold {
		fn(0, rows)
		return
	}
	p.Do(blocks, func(b int) {
		fn(b*rows/blocks, (b+1)*rows/blocks)
	})
}
