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

// TestArenaNewLikeOfReleased: a tensor shaped like one whose storage was
// released has its full length — the size comes from the shape.
func TestArenaNewLikeOfReleased(t *testing.T) {
	a := NewArena()
	x := a.NewRaw(2, 3, 4)
	a.Release(x)
	if got := a.NewRawLike(x); got.Len() != 24 || !got.SameShape(x) {
		t.Fatalf("NewRawLike of a released tensor: %d elements of shape %v, want 24 of %v", got.Len(), got.Shape(), x.Shape())
	}
	if got := a.NewLike(x); got.Len() != 24 {
		t.Fatalf("NewLike of a released tensor: %d elements, want 24", got.Len())
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

// TestArenaRelease pins what a step-scoped Release promises: the header
// loses its storage and (this being a test binary) the storage is NaN; a
// request of the same length gets the released address back; a larger
// release is split, the remainder served later; a release that reaches
// the slab's bump offset pulls it back; and Reset empties the list.
func TestArenaRelease(t *testing.T) {
	a := NewArena()
	addr := func(x *Tensor) *float64 { return &x.Data()[0] }
	a.NewRaw(256) // one slab for everything below
	a.Reset()
	x, keep := a.NewRaw(64), a.NewRaw(8)
	px, data := addr(x), x.Data()
	live := a.StepBytes()
	a.Release(x)
	if x.Overlaps(&Tensor{data: data}) {
		t.Fatal("Release left the header its storage")
	}
	for _, v := range data {
		if v == v {
			t.Fatal("released storage is not NaN-filled in a test binary")
		}
	}
	if got := a.StepBytes(); got != live-64*8 {
		t.Fatalf("StepBytes = %d after releasing 64 elements of %d bytes live", got, live)
	}
	a.Release(x) // twice: a no-op
	if y := a.NewRaw(64); addr(y) != px {
		t.Fatal("a same-length request did not get the released buffer")
	} else {
		a.Release(y)
	}
	// Split: 24 of the 64, then the 40 left, then nothing.
	p1, p2 := addr(a.NewRaw(24)), addr(a.NewRaw(40))
	if p1 != px || p2 != &data[24] {
		t.Fatal("a released buffer was not split into the request and a remainder served later")
	}
	p3 := addr(a.NewRaw(8))
	if uintptr(unsafe.Pointer(p3)) < uintptr(unsafe.Pointer(addr(keep))) {
		t.Fatal("an exhausted release list still served a request")
	}

	// The last buffer handed out goes back to the bump offset, not the list.
	last := a.NewRaw(16)
	pl, slabs := addr(last), len(a.floats)
	a.Release(last)
	if len(a.free) != 0 {
		t.Fatal("a release at the bump offset went on the list")
	}
	if addr(a.NewRaw(12)) != pl {
		t.Fatal("the bump offset was not pulled back")
	}
	if len(a.floats) != slabs {
		t.Fatal("the chain grew although released storage had room")
	}

	a.Release(keep)
	if len(a.free) != 1 {
		t.Fatalf("release list has %d spans, want 1", len(a.free))
	}
	a.Reset()
	if len(a.free) != 0 || a.StepBytes() != 0 {
		t.Fatal("Reset did not empty the release list")
	}

}

// TestArenaReleasedReadsNaN: in a test binary a released header reads NaN
// at its old length — so a backward that ranges over a value released
// too early reads NaN, not an empty slice — whatever later requests write
// into the storage it gave back, and a second Release of it is a no-op.
func TestArenaReleasedReadsNaN(t *testing.T) {
	a := NewArena()
	x, keep := a.NewRaw(2, 3, 4), a.NewRaw(8)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	live := a.StepBytes()
	a.Release(x)
	nan := func(when string) {
		t.Helper()
		if len(x.Data()) != 24 {
			t.Fatalf("%s: released tensor reads %d elements, want its 24", when, len(x.Data()))
		}
		for i, v := range x.Data() {
			if v == v {
				t.Fatalf("%s: released tensor reads %v at %d, want NaN", when, v, i)
			}
		}
	}
	nan("after Release")
	free := len(a.free)
	a.Release(x)
	if got := a.StepBytes(); got != live-24*8 {
		t.Fatalf("StepBytes = %d after releasing one tensor twice, want %d", got, live-24*8)
	}
	if len(a.free) != free {
		t.Fatalf("a second Release changed the release list: %d spans, was %d", len(a.free), free)
	}
	nan("after a second Release")
	y := a.NewRaw(24)
	for i := range y.Data() {
		y.Data()[i] = 1
	}
	nan("after its storage was handed out and written again")
	a.Release(keep)
	a.Release(y)
	if a.StepBytes() != 0 {
		t.Fatalf("StepBytes = %d with everything released", a.StepBytes())
	}
}

// TestArenaReleaseMergesNeighbours: two adjacent releases serve one
// request neither could alone, in whichever order they were released.
func TestArenaReleaseMergesNeighbours(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		a := NewArena()
		a.NewRaw(200) // one slab for everything below
		a.Reset()
		bufs := []*Tensor{a.NewRaw(32), a.NewRaw(32)}
		a.NewRaw(8)
		p := &bufs[0].Data()[0]
		a.Release(bufs[order[0]])
		a.Release(bufs[order[1]])
		if len(a.free) != 1 {
			t.Fatalf("order %v: %d spans on the list, want the two merged into 1", order, len(a.free))
		}
		if got := &a.NewRaw(64).Data()[0]; got != p {
			t.Fatalf("order %v: the merged span did not serve a request of both lengths", order)
		}
	}
}

// TestArenaReleaseRandom drives seeded random steps in which a third of
// the operations release a live buffer: no two live buffers ever overlap,
// StepBytes is exactly the live bytes, StepPeakBytes their high-water
// mark, and a step repeated after Reset walks the identical address
// sequence without growing the chain.
func TestArenaReleaseRandom(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := NewRand(seed)
		a := NewArena()
		type op struct{ n, release int } // allocate n, or release the live buffer at index release
		var ops []op
		for i, live := 0, 0; i < 200; i++ {
			if live > 0 && rng.IntN(3) == 0 {
				ops = append(ops, op{release: rng.IntN(live)})
				live--
				continue
			}
			ops = append(ops, op{n: 1 + rng.IntN(1<<rng.IntN(14)), release: -1})
			live++
		}
		var peak int64
		run := func() []uintptr {
			var addrs []uintptr
			var live []*Tensor
			var bytes int64
			for _, o := range ops {
				if o.release >= 0 {
					x := live[o.release]
					bytes -= int64(x.Len()) * 8
					a.Release(x)
					live = append(live[:o.release], live[o.release+1:]...)
				} else {
					x := a.NewRaw(o.n)
					if cap(x.Data()) != o.n {
						t.Fatalf("seed %d: buffer of len %d has cap %d", seed, o.n, cap(x.Data()))
					}
					for _, y := range live {
						if x.Overlaps(y) {
							t.Fatalf("seed %d: two live buffers overlap", seed)
						}
					}
					x.Fill(1)
					live = append(live, x)
					bytes += int64(o.n) * 8
					peak = max(peak, bytes)
					addrs = append(addrs, uintptr(unsafe.Pointer(&x.Data()[0])))
				}
				if a.StepBytes() != bytes {
					t.Fatalf("seed %d: StepBytes = %d with %d bytes live", seed, a.StepBytes(), bytes)
				}
			}
			for _, x := range live {
				for _, v := range x.Data() {
					if v != 1 {
						t.Fatalf("seed %d: a live buffer was written through a released one", seed)
					}
				}
			}
			a.Reset()
			return addrs
		}
		run() // the chain takes its shape
		first, held := run(), a.HeldBytes()
		second := run()
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("seed %d: allocation %d moved between two identical steps", seed, i)
			}
		}
		if a.HeldBytes() != held {
			t.Fatalf("seed %d: the chain grew over an identical step: %d -> %d", seed, held, a.HeldBytes())
		}
		if a.StepPeakBytes() != peak {
			t.Fatalf("seed %d: StepPeakBytes = %d, the live high-water mark was %d", seed, a.StepPeakBytes(), peak)
		}
		if float64(held) > 1.5*float64(peak)+2*slabCap*floatBytes {
			t.Fatalf("seed %d: arena holds %d bytes for a largest step of %d", seed, held, peak)
		}
	}
}
