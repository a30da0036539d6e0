package tensor

import (
	"testing"
	"unsafe"
)

// TestArenaRecyclesAcrossReset: the same step run twice lands on the same
// addresses and the arena does not grow; New zeroes recycled storage and
// a recycled header takes the new shape.
func TestArenaRecyclesAcrossReset(t *testing.T) {
	a := NewArena()
	step := func(r, c int) (*Tensor, []int) {
		t1 := a.New(r, c)
		t1.Fill(3)
		is := a.Ints(7)
		_ = a.NewRaw(5)
		return t1, is
	}
	t1, i1 := step(4, 8)
	d1, p1, held := &t1.Data()[0], &i1[0], a.HeldBytes()
	if want := int64(4*8+5)*8 + 7*intBytes; a.StepBytes() != want {
		t.Fatalf("StepBytes = %d, want %d", a.StepBytes(), want)
	}
	a.Reset()
	if a.StepBytes() != 0 {
		t.Fatalf("StepBytes after Reset = %d", a.StepBytes())
	}
	t2, i2 := step(8, 4) // same lengths, different shape: same storage
	if &t2.Data()[0] != d1 || &i2[0] != p1 || t2 != t1 {
		t.Fatal("arena did not hand the same step the same storage and header after Reset")
	}
	if got := t2.Dim(0); got != 8 {
		t.Fatalf("recycled tensor shape not updated: dim0 = %d", got)
	}
	a.Reset()
	for _, v := range a.New(4, 8).Data() {
		if v != 0 {
			t.Fatal("recycled New buffer not zeroed")
		}
	}
	if got := a.HeldBytes(); got != held {
		t.Fatalf("HeldBytes grew across identical steps: %d -> %d", held, got)
	}
	if allocs := testing.AllocsPerRun(10, func() { a.Reset(); step(4, 8) }); allocs != 0 {
		t.Fatalf("a warmed-up step allocates %v objects, want 0", allocs)
	}
}

func TestArenaDistinctBuffersWithinStep(t *testing.T) {
	a := NewArena()
	t1 := a.NewRaw(16)
	t2 := a.NewRaw(16)
	if &t1.Data()[0] == &t2.Data()[0] {
		t.Fatal("two live allocations share a buffer")
	}
	i1 := a.Ints(5)
	i2 := a.Ints(5)
	i1[0], i2[0] = 1, 2
	if i1[0] != 1 {
		t.Fatal("two live int buffers alias")
	}
}

func TestArenaViewSharesStorage(t *testing.T) {
	a := NewArena()
	base := a.New(2, 6)
	v := a.View(base, 3, 4)
	v.Set(7, 1, 1) // flat index 5
	if got := base.At(0, 5); got != 7 {
		t.Fatalf("view does not alias base: got %v", got)
	}
	if v == base {
		t.Fatal("view shares its base's header")
	}
	if a.StepBytes() != 2*6*8 {
		t.Fatalf("StepBytes = %d, want %d: a view takes no storage", a.StepBytes(), 2*6*8)
	}
	if want := 2*6*8 + 2*headerBytes; a.HeldBytes() != want {
		t.Fatalf("HeldBytes = %d, want %d (one slab, two headers)", a.HeldBytes(), want)
	}
}

func TestArenaNilFallsBackToHeap(t *testing.T) {
	var a *Arena
	tt := a.New(3, 3)
	if tt.Len() != 9 {
		t.Fatal("nil arena New failed")
	}
	if a.HeldBytes() != 0 || a.StepBytes() != 0 || a.StepPeakBytes() != 0 {
		t.Fatal("nil arena reports bytes")
	}
	a.Reset() // must not panic
	if s := a.Ints(4); len(s) != 4 {
		t.Fatal("nil arena Ints failed")
	}
	if v := a.ViewLike(tt, tt); v.Len() != 9 {
		t.Fatal("nil arena ViewLike failed")
	}
}

func TestArenaNewLikeMatchesShape(t *testing.T) {
	a := NewArena()
	proto := New(2, 3, 4)
	got := a.NewLike(proto)
	if !got.SameShape(proto) {
		t.Fatalf("NewLike shape %v, want %v", got.Shape(), proto.Shape())
	}
	raw := a.NewRawLike(proto)
	if !raw.SameShape(proto) {
		t.Fatalf("NewRawLike shape %v, want %v", raw.Shape(), proto.Shape())
	}
}

// TestArenaRandomRequests drives arenas through seeded random steps —
// sizes 1…2²⁰, New/NewRaw/NewLike/Floats/Ints/View mixed, a Reset between
// steps, some steps repeated — and checks what every caller relies on: no
// two live buffers overlap, cap == len (an append cannot run into a
// neighbour), live tensors have distinct headers, New is all-zero on
// recycled storage, and HeldBytes never decreases and stays within twice
// the largest step seen plus one slab per element type (first-fit leaves
// at most every other slab under half full; the float and the int chain
// may each end on a nearly empty one). The bound is for requests up to
// slabCap: a run of ever larger single buffers keeps a slab for each.
func TestArenaRandomRequests(t *testing.T) {
	type span struct{ lo, hi uintptr }
	for seed := uint64(1); seed <= 6; seed++ {
		rng := NewRand(seed)
		a := NewArena()
		var held, maxStep int64
		check := func() {
			t.Helper()
			h := a.HeldBytes()
			maxStep = max(maxStep, a.StepBytes())
			if h < held {
				t.Fatalf("seed %d: HeldBytes fell from %d to %d", seed, held, h)
			}
			if limit := 2*maxStep + 2*slabCap*floatBytes; h > limit {
				t.Fatalf("seed %d: HeldBytes %d exceeds 2 × the largest step (%d) + two slabs", seed, h, maxStep)
			}
			held = h
		}
		var sizes []int
		for step := 0; step < 8; step++ {
			if step%3 != 2 { // every third step repeats the previous one
				sizes = sizes[:0]
				for i, n := 0, 4+rng.IntN(28); i < n; i++ {
					sizes = append(sizes, 1+rng.IntN(1<<rng.IntN(21)))
				}
			}
			var live []span
			seen := map[*Tensor]bool{}
			claim := func(p unsafe.Pointer, n, c int) {
				t.Helper()
				if c != n {
					t.Fatalf("seed %d: buffer of len %d has cap %d", seed, n, c)
				}
				s := span{uintptr(p), uintptr(p) + uintptr(n)*8}
				for _, o := range live {
					if s.lo < o.hi && o.lo < s.hi {
						t.Fatalf("seed %d step %d: live buffers overlap", seed, step)
					}
				}
				live = append(live, s)
			}
			tensorOK := func(x *Tensor, zero bool) {
				t.Helper()
				if seen[x] {
					t.Fatalf("seed %d: header handed out twice in one step", seed)
				}
				seen[x] = true
				d := x.Data()
				claim(unsafe.Pointer(&d[0]), len(d), cap(d))
				for _, v := range d {
					if zero && v != 0 {
						t.Fatalf("seed %d step %d: New returned dirty storage", seed, step)
					}
				}
				x.Fill(float64(step + 1)) // dirty it for whoever gets it next
			}
			for i, n := range sizes {
				switch i % 6 {
				case 0:
					tensorOK(a.New(n), true)
				case 1:
					tensorOK(a.NewRaw(1, n), false)
				case 2:
					is := a.Ints(n)
					claim(unsafe.Pointer(&is[0]), len(is), cap(is))
					for j := range is {
						is[j] = -1
					}
				case 3:
					x := a.NewLike(FromSlice(make([]float64, n), n))
					tensorOK(x, true)
					if v := a.View(x, n, 1); seen[v] || &v.Data()[0] != &x.Data()[0] {
						t.Fatalf("seed %d: view does not share storage under its own header", seed)
					} else {
						seen[v] = true
					}
				case 4:
					f := a.Floats(n)
					claim(unsafe.Pointer(&f[0]), len(f), cap(f))
					for j, v := range f {
						if v != 0 {
							t.Fatalf("seed %d step %d: Floats returned dirty storage", seed, step)
						}
						f[j] = -2
					}
				case 5:
					tensorOK(a.NewRawLike(FromSlice(make([]float64, n), 1, n)), false)
				}
				check()
			}
			a.Reset()
			check()
		}
		if a.StepPeakBytes() != maxStep {
			t.Fatalf("seed %d: StepPeakBytes = %d, largest step was %d", seed, a.StepPeakBytes(), maxStep)
		}
	}
}
