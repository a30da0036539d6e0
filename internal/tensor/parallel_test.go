package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// stubParallel is a fixed-width executor that runs every block on its own
// goroutine and counts dispatches, so tests can both force wide fan-outs
// on a 1-core machine and assert the parallel path actually ran.
type stubParallel struct {
	width int
	calls atomic.Int64
}

func (s *stubParallel) Width() int { return s.width }

func (s *stubParallel) Do(blocks int, fn func(int)) {
	s.calls.Add(1)
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			fn(b)
		}(b)
	}
	wg.Wait()
}

func forceParallel(t *testing.T, width int) *stubParallel {
	t.Helper()
	orig := parallelThreshold
	parallelThreshold = 1
	p := &stubParallel{width: width}
	SetParallel(p)
	t.Cleanup(func() {
		parallelThreshold = orig
		SetParallel(nil)
	})
	return p
}

// TestParallelMatMulBitExact pins the row-blocked parallel dispatch to the
// serial kernels bit for bit across executor widths, including widths
// exceeding the row count (blocks capped, no empty block ever dispatched),
// single-row operands, and ragged tails where rows % width != 0. The
// threshold is lowered so even 1×1 products take the parallel path.
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
		p := forceParallel(t, width)
		rng := NewRand(11)
		for _, d := range dims {
			m, k, n := d[0], d[1], d[2]
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
		if width > 1 && p.calls.Load() == 0 {
			t.Fatalf("width %d: parallel executor never dispatched", width)
		}
		SetParallel(nil)
	}
}

// TestParallelForCoversAllIndices checks the block plan partitions [0, n)
// exactly — every index visited once — for awkward n/width combinations.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, width := range []int{1, 2, 3, 7, 16} {
		forceParallel(t, width)
		for _, n := range []int{1, 2, 3, 15, 16, 17, 100} {
			hits := make([]atomic.Int64, n)
			parallelRows(n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("width %d n %d: index %d visited %d times", width, n, i, got)
				}
			}
		}
		SetParallel(nil)
	}
}
