package tensor

import (
	"sync/atomic"
	"testing"
)

// forceParallel swaps in a kernel gang of the given width and lowers the
// threshold so even 1×1 products take the parallel path, restoring both
// when the test ends. Widths above the core count still fan out: a gang's
// helpers are goroutines.
func forceParallel(t *testing.T, width int) {
	t.Helper()
	kernelGang() // start the process gang first so the swap outlives its Once
	origGang, origThreshold := kernels, parallelThreshold
	kernels, parallelThreshold = newGang(width), 1
	t.Cleanup(func() { kernels, parallelThreshold = origGang, origThreshold })
}

// TestParallelMatMulBitExact pins the row-blocked parallel dispatch to the
// serial kernels bit for bit across gang widths, including widths
// exceeding the row count (blocks capped, no empty block ever dispatched),
// single-row operands, and ragged tails where rows % width != 0.
func TestParallelMatMulBitExact(t *testing.T) {
	dims := [][3]int{
		{1, 1, 1},    // single row: must stay serial even at width 16
		{2, 3, 4},    // fewer rows than most widths
		{3, 5, 7},    // ragged everything
		{7, 5, 3},    // rows indivisible by widths 2..5
		{5, 9, 6},    //
		{17, 33, 29}, // ragged tail at every width
		{64, 72, 100},
		{128, 64, 32},
	}
	for _, width := range []int{1, 2, 3, 5, 8, 16} {
		forceParallel(t, width)
		rng := NewRand(11)
		for _, d := range dims {
			m, k, n := d[0], d[1], d[2]
			if got, want := rowsParallel(m, k*n), width > 1 && m > 1; got != want {
				t.Fatalf("width %d rows %d: rowsParallel = %v, want %v", width, m, got, want)
			}
			a, b := New(m, k), New(k, n)
			FillNormal(a, 0, 1, rng)
			FillNormal(b, 0, 1, rng)
			for i := 0; i < len(a.data); i += 3 {
				a.data[i] = 0 // zero-skip lanes must survive blocking
			}
			bitEq(t, "matmul", MatMul(a, b), refMatMul(a, b))

			at := New(k, m)
			FillNormal(at, 0, 1, rng)
			bitEq(t, "transA", MatMulTransA(at, b), refTransA(at, b))

			bt := New(n, k)
			FillNormal(bt, 0, 1, rng)
			bitEq(t, "transB", MatMulTransB(a, bt), refTransB(a, bt))

			dst := New(m, n)
			FillNormal(dst, 0, 1, rng)
			want := dst.Clone()
			AccumInto(want, refTransB(a, bt))
			MatMulTransBAccInto(dst, a, bt)
			bitEq(t, "transBAcc", dst, want)
		}
	}
}

// TestParallelForCoversAllIndices checks the block plan partitions [0, n)
// exactly — every index visited once, in min(width, n) blocks — for
// awkward n/width combinations.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, width := range []int{1, 2, 3, 7, 16} {
		forceParallel(t, width)
		for _, n := range []int{1, 2, 3, 15, 16, 17, 100} {
			hits := make([]atomic.Int64, n)
			var blocks atomic.Int64
			parallelRows(n, 1, func(lo, hi int) {
				blocks.Add(1)
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("width %d n %d: index %d visited %d times", width, n, i, got)
				}
			}
			if want := int64(min(width, n)); blocks.Load() != want {
				t.Fatalf("width %d n %d: %d blocks, want %d", width, n, blocks.Load(), want)
			}
		}
	}
}

// TestGangDoCoversAllBlocks checks every block runs exactly once for all
// width/block combinations, including blocks > width, width 1 (no
// helpers), and the degenerate zero-block call.
func TestGangDoCoversAllBlocks(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		g := newGang(width)
		if g.width() != width {
			t.Fatalf("width %d: got %d", width, g.width())
		}
		for _, blocks := range []int{0, 1, 2, 3, 7, 16, 50} {
			hits := make([]atomic.Int64, blocks+1)
			g.do(blocks, func(b int) { hits[b].Add(1) })
			for b := 0; b < blocks; b++ {
				if got := hits[b].Load(); got != 1 {
					t.Fatalf("width %d blocks %d: block %d ran %d times", width, blocks, b, got)
				}
			}
		}
	}
}

// TestGangNestedDoesNotDeadlock nests do inside do beyond the gang's
// width: the inner calls find the tokens exhausted and degrade to serial
// execution on the caller. The test completing at all is the deadlock
// check; the counters verify no block is lost in the degraded path.
func TestGangNestedDoesNotDeadlock(t *testing.T) {
	g := newGang(4)
	const outer, inner = 8, 8
	var ran atomic.Int64
	g.do(outer, func(ob int) {
		g.do(inner, func(ib int) {
			g.do(2, func(int) {}) // third level, certainly token-starved
			ran.Add(1)
		})
	})
	if got := ran.Load(); got != outer*inner {
		t.Fatalf("nested blocks ran %d times, want %d", got, outer*inner)
	}
}

// TestGangConcurrentCallers hammers one gang from many goroutines; tokens
// must never be lost (every call still completes with full coverage).
func TestGangConcurrentCallers(t *testing.T) {
	g := newGang(4)
	done := make(chan struct{})
	for c := 0; c < 8; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for iter := 0; iter < 200; iter++ {
				var ran atomic.Int64
				g.do(5, func(int) { ran.Add(1) })
				if ran.Load() != 5 {
					panic("lost a block")
				}
			}
		}()
	}
	for c := 0; c < 8; c++ {
		<-done
	}
	if got := g.tokens.Load(); got != int64(g.helpers) {
		t.Fatalf("tokens leaked: %d outstanding of %d", int64(g.helpers)-got, g.helpers)
	}
}

// TestGangAsKernelExecutor runs a matmul large enough to fan out at the
// default threshold on a wide gang and checks it against the serial
// result bit for bit.
func TestGangAsKernelExecutor(t *testing.T) {
	a := New(64, 48)
	b := New(48, 56)
	rng := NewRand(31)
	FillNormal(a, 0, 1, rng)
	FillNormal(b, 0, 1, rng)
	want := refMatMul(a, b)

	kernelGang()
	orig := kernels
	kernels = newGang(8)
	defer func() { kernels = orig }()
	if !rowsParallel(64, 48*56) {
		t.Fatal("a 64×48×56 product does not fan out on a width-8 gang")
	}
	bitEq(t, "gang matmul", MatMul(a, b), want)
}
