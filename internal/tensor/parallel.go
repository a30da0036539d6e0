package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the minimum number of multiply-adds before a matmul
// is split across the kernel gang; below this the dispatch overhead
// dominates. A variable so tests can lower it and force tiny operands
// through the parallel path.
var parallelThreshold = 1 << 17

// kernels is the gang large kernels fan out on. It is started, sized to
// GOMAXPROCS, by the first kernel large enough to fan out (kernelGang), so
// a process that never runs one starts no helpers. Tests swap it to force
// a width.
var (
	kernels     *gang
	kernelsOnce sync.Once
)

func kernelGang() *gang {
	kernelsOnce.Do(func() { kernels = newGang(runtime.GOMAXPROCS(0)) })
	return kernels
}

// rowsParallel reports whether a row loop of the given size would fan out
// across the gang. Kernels consult it before building the closure for
// parallelRows, so the serial path — the common case for training-step
// sized operands — allocates nothing.
func rowsParallel(rows, workPerRow int) bool {
	return rows > 1 && rows*workPerRow >= parallelThreshold && kernelGang().width() > 1
}

// parallelRows runs fn over [0,rows) split into contiguous row blocks on
// the kernel gang when rows*workPerRow exceeds parallelThreshold;
// otherwise it runs fn serially. The block plan is deterministic: blocks =
// min(width, rows) and block b covers [b*rows/blocks, (b+1)*rows/blocks),
// and every block is computed by the same serial kernel, so which worker
// runs a block never affects a single bit of the result. fn must be safe
// to run concurrently on disjoint ranges.
func parallelRows(rows, workPerRow int, fn func(lo, hi int)) {
	if !rowsParallel(rows, workPerRow) {
		if rows > 0 {
			fn(0, rows)
		}
		return
	}
	g := kernelGang()
	blocks := g.width()
	if blocks > rows {
		blocks = rows
	}
	g.do(blocks, func(b int) {
		fn(b*rows/blocks, (b+1)*rows/blocks)
	})
}

// gang is a borrowable group of persistent helper goroutines for nested
// data parallelism inside kernels: a gang of width W owns W-1 helpers plus
// the calling goroutine.
//
// do borrows helpers non-blockingly from a token pool: whatever is idle
// joins the fan-out, and when every token is out (for example a kernel
// invoked from inside another kernel's block, or from several concurrent
// teacher forwards) the caller simply runs all blocks itself. Helpers
// never block on locks or channels while holding work, so nesting can
// degrade to serial execution but can never deadlock.
//
// Block assignment is a static stride plan: with h helpers borrowed, lane
// l runs blocks l, l+h+1, l+2(h+1), … and the caller is lane 0. The plan
// is deterministic given (blocks, borrowed) — and irrelevant to results,
// since every block is a self-contained disjoint row range.
type gang struct {
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

// newGang starts a gang of the given width (minimum 1; width-1 helper
// goroutines). The helpers live for the life of the process.
func newGang(width int) *gang {
	if width < 1 {
		width = 1
	}
	g := &gang{helpers: width - 1, jobs: make(chan gangJob, width-1)}
	g.tokens.Store(int64(width - 1))
	for i := 0; i < width-1; i++ {
		go g.run()
	}
	return g
}

// width reports the gang's total worker count (helpers + caller).
func (g *gang) width() int { return g.helpers + 1 }

func (g *gang) run() {
	for j := range g.jobs {
		runLane(j.fn, j.blocks, j.lane, j.stride)
		// Return the token before releasing the caller: once do returns,
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

// do runs fn(b) for every b in [0, blocks), spreading the blocks over the
// caller plus however many helpers could be borrowed right now. The jobs
// channel has one slot per helper and a job is only sent while holding
// that helper's token, so sends never block.
func (g *gang) do(blocks int, fn func(block int)) {
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
