package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Gang is a borrowable group of persistent helper goroutines for nested
// data parallelism inside kernels. It implements tensor.Parallel: a
// Gang of width W owns W-1 helpers plus the calling goroutine.
//
// Do borrows helpers non-blockingly from a token pool: whatever is idle
// joins the fan-out, and when every token is out (for example a kernel
// invoked from inside another kernel's block, or from several concurrent
// teacher forwards) the caller simply runs all blocks itself. Helpers
// never block on locks or channels while holding work, so nesting can
// degrade to serial execution but can never deadlock.
//
// Block assignment is a static stride plan: with h helpers borrowed, lane
// l runs blocks l, l+h+1, l+2(h+1), … and the caller is lane 0. The plan
// is deterministic given (blocks, borrowed) — and irrelevant to results,
// since tensor kernels make each block a self-contained disjoint row
// range.
type Gang struct {
	helpers int
	tokens  atomic.Int64
	jobs    chan gangJob
}

type gangJob struct {
	fn     func(block int)
	blocks int
	lane   int
	stride int
	wg     *sync.WaitGroup
}

// NewGang starts a gang of the given width (minimum 1; width-1 helper
// goroutines). The helpers live for the life of the process — gangs are
// meant to be created once and installed via tensor.SetParallel.
func NewGang(width int) *Gang {
	if width < 1 {
		width = 1
	}
	g := &Gang{helpers: width - 1, jobs: make(chan gangJob, width-1)}
	g.tokens.Store(int64(width - 1))
	for i := 0; i < width-1; i++ {
		go g.run()
	}
	return g
}

// Width reports the gang's total worker count (helpers + caller).
func (g *Gang) Width() int { return g.helpers + 1 }

func (g *Gang) run() {
	for j := range g.jobs {
		runLane(j.fn, j.blocks, j.lane, j.stride)
		// Return the token before releasing the caller: once Do returns,
		// every helper it borrowed is accounted idle again.
		g.tokens.Add(1)
		j.wg.Done()
	}
}

func runLane(fn func(int), blocks, lane, stride int) {
	for b := lane; b < blocks; b += stride {
		fn(b)
	}
}

// Do runs fn(b) for every b in [0, blocks), spreading the blocks over the
// caller plus however many helpers could be borrowed right now. The jobs
// channel has one slot per helper and a job is only sent while holding
// that helper's token, so sends never block.
func (g *Gang) Do(blocks int, fn func(block int)) {
	if blocks <= 0 {
		return
	}
	want := blocks - 1
	if want > g.helpers {
		want = g.helpers
	}
	borrowed := 0
	for borrowed < want {
		t := g.tokens.Load()
		if t <= 0 {
			break
		}
		if g.tokens.CompareAndSwap(t, t-1) {
			borrowed++
		}
	}
	if borrowed == 0 {
		runLane(fn, blocks, 0, 1)
		return
	}
	stride := borrowed + 1
	var wg sync.WaitGroup
	wg.Add(borrowed)
	for lane := 1; lane <= borrowed; lane++ {
		g.jobs <- gangJob{fn: fn, blocks: blocks, lane: lane, stride: stride, wg: &wg}
	}
	runLane(fn, blocks, 0, stride)
	wg.Wait()
}

var kernelGangOnce sync.Once

// UseKernelGang installs a process-wide Gang, sized to GOMAXPROCS at
// first call, as package tensor's parallel executor, so large matmuls
// fan out onto the same threads that run scheduler workers instead of
// spawning fresh goroutines per call. Idempotent; called from server and
// coordinator construction.
func UseKernelGang() {
	kernelGangOnce.Do(func() {
		tensor.SetParallel(NewGang(runtime.GOMAXPROCS(0)))
	})
}
