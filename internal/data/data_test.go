package data

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

func TestMakeValidation(t *testing.T) {
	bad := []Config{
		{},
		{Family: FamilyDigits, Classes: 1, C: 1, H: 8, W: 8, TrainPerClass: 5, TestPerClass: 5},
		{Family: FamilyDigits, Classes: 10, C: 1, H: 8, W: 8, TrainPerClass: 0, TestPerClass: 5},
	}
	for i, cfg := range bad {
		if _, err := Make(cfg); err == nil {
			t.Fatalf("config %d: want error", i)
		}
	}
}

func TestDatasetShapesAndBalance(t *testing.T) {
	ds := SynthMNIST(Sizes{TrainPerClass: 12, TestPerClass: 4}, 1)
	if ds.NumTrain() != 120 || ds.NumTest() != 40 {
		t.Fatalf("sizes: train=%d test=%d", ds.NumTrain(), ds.NumTest())
	}
	s := trainX(ds).Shape()
	if s[0] != 120 || s[1] != 1 || s[2] != 16 || s[3] != 16 {
		t.Fatalf("train shape %v", s)
	}
	counts := make([]int, ds.Classes)
	for _, y := range ds.TrainY {
		counts[y]++
	}
	for cl, n := range counts {
		if n != 12 {
			t.Fatalf("class %d has %d train samples, want 12", cl, n)
		}
	}
}

// synth builds one of the named datasets.
func synth(name string, sz Sizes, seed uint64) *Dataset {
	ds, _ := ByName(name, sz, seed)
	return ds
}

func TestDeterminism(t *testing.T) {
	a := synth("synthcifar10", Sizes{TrainPerClass: 5, TestPerClass: 2}, 7)
	b := synth("synthcifar10", Sizes{TrainPerClass: 5, TestPerClass: 2}, 7)
	if tensor.MaxAbsDiff(trainX(a), trainX(b)) != 0 {
		t.Fatal("same seed produced different data")
	}
	for i := range a.TrainY {
		if a.TrainY[i] != b.TrainY[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	c := synth("synthcifar10", Sizes{TrainPerClass: 5, TestPerClass: 2}, 8)
	if tensor.MaxAbsDiff(trainX(a), trainX(c)) == 0 {
		t.Fatal("different seeds produced identical data")
	}
}

func TestPixelRange(t *testing.T) {
	for _, name := range []string{"synthmnist", "synthkmnist", "synthfashion", "synthcifar10", "synthcifar100", "synthsvhn"} {
		ds, ok := ByName(name, Sizes{TrainPerClass: 3, TestPerClass: 2}, 1)
		if !ok {
			t.Fatalf("ByName(%q) not found", name)
		}
		for _, v := range trainX(ds).Data() {
			if v < -1 || v > 1 {
				t.Fatalf("%s: pixel %v outside [-1,1]", name, v)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("mnist", DefaultSizes, 1); ok {
		t.Fatal("unknown name must return ok=false")
	}
}

func TestClassSeparability(t *testing.T) {
	// A nearest-class-mean classifier on raw pixels must beat chance by a
	// wide margin: the classes are learnable by construction.
	ds := SynthMNIST(Sizes{TrainPerClass: 30, TestPerClass: 10}, 3)
	px := ds.C * ds.H * ds.W
	means := make([][]float64, ds.Classes)
	counts := make([]int, ds.Classes)
	for i := range means {
		means[i] = make([]float64, px)
	}
	xd := trainX(ds).Data()
	for i, y := range ds.TrainY {
		for j := 0; j < px; j++ {
			means[y][j] += xd[i*px+j]
		}
		counts[y]++
	}
	for cl := range means {
		for j := range means[cl] {
			means[cl][j] /= float64(counts[cl])
		}
	}
	correct := 0
	td := ds.TestX.Data()
	for i, y := range ds.TestY {
		best, bi := 1e18, -1
		for cl := range means {
			d := 0.0
			for j := 0; j < px; j++ {
				diff := td[i*px+j] - means[cl][j]
				d += diff * diff
			}
			if d < best {
				best, bi = d, cl
			}
		}
		if bi == y {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ds.TestY))
	if acc < 0.5 {
		t.Fatalf("nearest-mean accuracy %.2f; classes are not separable enough", acc)
	}
}

func TestFamilyStatisticsDiffer(t *testing.T) {
	// The Objects (CIFAR-like) and Street (SVHN-like) families must have
	// visibly different pixel statistics — that is what drives the FedMD
	// public-dataset sensitivity result (Table I).
	obj := synth("synthcifar10", Sizes{TrainPerClass: 20, TestPerClass: 2}, 5)
	str := synth("synthsvhn", Sizes{TrainPerClass: 20, TestPerClass: 2}, 5)
	// Street backgrounds are two-tone vertical splits redrawn per sample,
	// so the mean left-half/right-half intensity difference is large;
	// objects backgrounds are smooth class prototypes with little
	// systematic left-right asymmetry.
	lrAsymmetry := func(ds *Dataset) float64 {
		n := ds.NumTrain()
		xd := trainX(ds).Data()
		px := ds.C * ds.H * ds.W
		total := 0.0
		for i := 0; i < n; i++ {
			left, right := 0.0, 0.0
			for ch := 0; ch < ds.C; ch++ {
				for y := 0; y < ds.H; y++ {
					row := xd[i*px+ch*ds.H*ds.W+y*ds.W : i*px+ch*ds.H*ds.W+(y+1)*ds.W]
					for x := 0; x < ds.W/2; x++ {
						left += row[x]
					}
					for x := ds.W / 2; x < ds.W; x++ {
						right += row[x]
					}
				}
			}
			half := float64(ds.C * ds.H * ds.W / 2)
			diff := left/half - right/half
			if diff < 0 {
				diff = -diff
			}
			total += diff
		}
		return total / float64(n)
	}
	ao, as := lrAsymmetry(obj), lrAsymmetry(str)
	if as < 1.5*ao {
		t.Fatalf("street left-right asymmetry %.4f not ≫ objects %.4f; families not distinct", as, ao)
	}
}

// trainX renders the whole training split, in index order.
func trainX(ds *Dataset) *tensor.Tensor {
	idx := make([]int, ds.NumTrain())
	for i := range idx {
		idx[i] = i
	}
	x, _ := ds.GatherTrainIn(tensor.NewArena(), idx)
	return x
}

// eagerMake is the reference for build: Make's draw as it was while the
// training split was held rendered. It renders both splits, each through
// gatherRender, from rng, and leaves rng where the last draw left it.
func eagerMake(cfg Config, rng *rand.Rand) (trainX *tensor.Tensor, trainY []int, testX *tensor.Tensor, testY []int) {
	protos := make([][]float64, cfg.Classes)
	colors := make([][]float64, cfg.Classes)
	for cl := range protos {
		protos[cl] = prototype(cfg.Family, cfg.C, cfg.H, cfg.W, rng)
		colors[cl] = classColor(cfg.C, rng)
	}
	trainX, trainY = gatherRender(cfg, protos, colors, cfg.TrainPerClass, rng)
	testX, testY = gatherRender(cfg, protos, colors, cfg.TestPerClass, rng)
	return trainX, trainY, testX, testY
}

// gatherRender renders perClass samples of every class, interleaved, into
// one tensor, then gathers them through the shuffle permutation into a
// second.
func gatherRender(cfg Config, protos, colors [][]float64, perClass int, rng *rand.Rand) (*tensor.Tensor, []int) {
	n := perClass * cfg.Classes
	px := cfg.C * cfg.H * cfg.W
	x := tensor.New(n, cfg.C, cfg.H, cfg.W)
	y := make([]int, n)
	xd := x.Data()
	i := 0
	for s := 0; s < perClass; s++ {
		for cl := 0; cl < cfg.Classes; cl++ {
			eagerRenderSample(cfg, protos[cl], colors[cl], xd[i*px:(i+1)*px], rng)
			y[i] = cl
			i++
		}
	}
	perm := rng.Perm(n)
	sx := tensor.New(n, cfg.C, cfg.H, cfg.W)
	sy := make([]int, n)
	sd := sx.Data()
	for dst, src := range perm {
		copy(sd[dst*px:(dst+1)*px], xd[src*px:(src+1)*px])
		sy[dst] = y[src]
	}
	return sx, sy
}

// eagerRenderSample is renderSample as it was while a street background
// was drawn into a slice of its own.
func eagerRenderSample(cfg Config, proto, color []float64, dst []float64, rng *rand.Rand) {
	h, w, c := cfg.H, cfg.W, cfg.C
	dx := rng.IntN(2*cfg.MaxShift+1) - cfg.MaxShift
	dy := rng.IntN(2*cfg.MaxShift+1) - cfg.MaxShift
	contrast := 0.7 + 0.6*rng.Float64()
	var bg []float64
	if cfg.Family == FamilyStreet {
		bg = make([]float64, c*h*w)
		eagerStreetBackground(bg, c, h, w, rng)
	}
	for ch := 0; ch < c; ch++ {
		gain := contrast
		if len(color) > ch {
			gain *= color[ch]
		}
		for yy := 0; yy < h; yy++ {
			sy := yy - dy
			for xx := 0; xx < w; xx++ {
				sx := xx - dx
				v := 0.0
				if sy >= 0 && sy < h && sx >= 0 && sx < w {
					v = proto[sy*w+sx]
				}
				out := gain * v
				if bg != nil {
					out = 0.6*out + bg[ch*h*w+yy*w+xx]
				}
				out += cfg.NoiseStd * rng.NormFloat64()
				dst[ch*h*w+yy*w+xx] = clamp(out, -1, 1)
			}
		}
	}
}

// eagerStreetBackground is streetBackground as it was while every call
// painted: it writes the SVHN stand-in's two-tone background into bg.
func eagerStreetBackground(bg []float64, c, h, w int, rng *rand.Rand) {
	split := w/4 + rng.IntN(w/2)
	for ch := 0; ch < c; ch++ {
		left := 0.35 + 0.45*rng.Float64()
		right := -(0.35 + 0.45*rng.Float64())
		if rng.Float64() < 0.5 {
			left, right = right, left
		}
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				v := left
				if xx >= split {
					v = right
				}
				bg[ch*h*w+yy*w+xx] = v
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLazyTrainSplitMatchesEagerRender: every training sample a gather
// renders from its recorded state holds the bytes the eager render left at
// its index, the labels and the rendered test split are the eager ones,
// and the dataset's draw leaves the generator where the eager draw did.
// The configurations are every named dataset, small odd shapes of each
// family, and the sizes the golden federations and the benchmark
// workloads build.
func TestLazyTrainSplitMatchesEagerRender(t *testing.T) {
	var cfgs []Config
	for _, name := range []string{"synthmnist", "synthkmnist", "synthfashion", "synthcifar10", "synthcifar100", "synthsvhn"} {
		cfg, _ := Spec(name)
		cfg.TrainPerClass, cfg.TestPerClass = 5, 2
		cfgs = append(cfgs, cfg)
	}
	for _, tc := range []struct {
		family           Family
		classes, c, h, w int
		perClass         int
	}{
		{FamilyDigits, 2, 1, 4, 4, 1},
		{FamilyDigits, 10, 1, 8, 8, 7},
		{FamilyStreet, 3, 3, 6, 6, 13},
		{FamilyObjects, 10, 3, 8, 8, 40},
	} {
		cfgs = append(cfgs, Config{Name: "shape", Family: tc.family, Classes: tc.classes, C: tc.c, H: tc.h, W: tc.w,
			TrainPerClass: tc.perClass, TestPerClass: 3})
	}
	cfgs = append(cfgs, Config{Name: "golden", Family: FamilyDigits, Classes: 3, C: 1, H: 8, W: 8, TrainPerClass: 12, TestPerClass: 6})
	for _, sz := range []Sizes{DefaultSizes, {TrainPerClass: 60, TestPerClass: 10}, {TrainPerClass: 201, TestPerClass: 10}, {TrainPerClass: 26, TestPerClass: 8}} {
		cfg, _ := Spec("synthmnist")
		cfg.TrainPerClass, cfg.TestPerClass = sz.TrainPerClass, sz.TestPerClass
		cfgs = append(cfgs, cfg)
	}
	for _, base := range cfgs {
		for _, seed := range []uint64{1, 7, 42, 1234} {
			cfg := base
			cfg.Seed ^= seed
			cfg.NoiseStd, cfg.MaxShift = 0.15, 2
			pcg, ref := tensor.NewPCG(cfg.Seed), tensor.NewRand(cfg.Seed)
			ds := build(cfg, pcg)
			wx, wy, tx, ty := eagerMake(cfg, ref)
			if !slices.Equal(ds.TrainY, wy) || !slices.Equal(ds.TestY, ty) || !sameBits(ds.TestX.Data(), tx.Data()) {
				t.Fatalf("%s %dx%dx%d, %d/%d per class, seed %d: labels or test split differ from the eager render",
					cfg.Name, cfg.C, cfg.H, cfg.W, cfg.TrainPerClass, cfg.TestPerClass, seed)
			}
			// Gather backwards in batches of 7, so a sample's bytes cannot
			// depend on its neighbours or its place in the batch.
			px := cfg.C * cfg.H * cfg.W
			a := tensor.NewArena()
			for hi := ds.NumTrain(); hi > 0; hi -= 7 {
				var idx []int
				for i := hi - 1; i >= max(hi-7, 0); i-- {
					idx = append(idx, i)
				}
				x, _ := ds.GatherTrainIn(a, idx)
				for k, i := range idx {
					if !sameBits(x.Data()[k*px:(k+1)*px], wx.Data()[i*px:(i+1)*px]) {
						t.Fatalf("%s %dx%dx%d, %d per class, seed %d: training sample %d differs from the eager render",
							cfg.Name, cfg.C, cfg.H, cfg.W, cfg.TrainPerClass, seed, i)
					}
				}
				a.Reset()
			}
			if rand.New(pcg).Uint64() != ref.Uint64() {
				t.Fatalf("%s %dx%dx%d, %d per class, seed %d: the draw left the generator elsewhere than the eager render",
					cfg.Name, cfg.C, cfg.H, cfg.W, cfg.TrainPerClass, seed)
			}
		}
	}
}

// countingSource counts the words drawn from its source.
type countingSource struct {
	src   rand.Source
	drawn int
}

func (c *countingSource) Uint64() uint64 { c.drawn++; return c.src.Uint64() }

// TestWalkDrawsWhatRenderDraws: for every named dataset, 50 seeds and
// every class, a walk and a render started from the same generator state
// leave the generator in the same state. PCG's period is 2¹²⁸, so equal
// states after equal starts mean the walk made as many words as the
// render drew. Some normal draws fail the ziggurat's fast test and take
// its slow path, which draws more words; the test counts the render's
// words and requires that it saw them.
func TestWalkDrawsWhatRenderDraws(t *testing.T) {
	slow := 0
	for _, name := range []string{"synthmnist", "synthkmnist", "synthfashion", "synthcifar10", "synthcifar100", "synthsvhn"} {
		for seed := uint64(0); seed < 50; seed++ {
			ds, _ := ByName(name, Sizes{TrainPerClass: 1, TestPerClass: 1}, seed)
			cfg := ds.cfg
			px := cfg.C * cfg.H * cfg.W
			pcg := tensor.NewPCG(seed)
			src := &countingSource{src: pcg}
			rng := rand.New(src)
			dst := make([]float64, px)
			// from restores at and returns the words drawn by f.
			from := func(at pcgState, f func()) int {
				pcg.Seed(at.hi, at.lo)
				n := src.drawn
				f()
				return src.drawn - n
			}
			for cl := range ds.Classes {
				at := stateOf(pcg)
				rendered := from(at, func() { renderSample(cfg, ds.protos[cl], ds.colors[cl], dst, rng) })
				afterRender := stateOf(pcg)
				if walked := walkSample(cfg, at, pcg, rng); walked != afterRender {
					t.Fatalf("%s seed %d class %d: the walk left the generator at %x, the render at %x",
						name, seed, cl, walked, afterRender)
				}
				view := from(at, func() { drawView(cfg, nil, rng) })
				slow += rendered - view - px
				pcg.Seed(afterRender.hi, afterRender.lo)
			}
		}
	}
	if slow == 0 {
		t.Fatal("no normal draw took the ziggurat's slow path: the parity check never covered it")
	}
	t.Logf("%d words drawn on the ziggurat's slow path", slow)
}

// TestWalkNormalsMatchesNormFloat64: from many states and for every count
// up to a few lane widths past a slow draw, walkNormals leaves the state n
// NormFloat64 calls leave, so the lanes' tails and restarts are covered.
func TestWalkNormalsMatchesNormFloat64(t *testing.T) {
	pcg := new(rand.PCG)
	rng := rand.New(pcg)
	scratch := new(rand.PCG)
	scratchRng := rand.New(scratch)
	for seed := uint64(0); seed < 200; seed++ {
		at := stateOf(tensor.NewPCG(seed))
		for n := 0; n <= 3*lanes+1; n++ {
			pcg.Seed(at.hi, at.lo)
			for range n {
				rng.NormFloat64()
			}
			if got := walkNormals(at, n, scratch, scratchRng); got != stateOf(pcg) {
				t.Fatalf("seed %d, %d draws: walked to %x, NormFloat64 to %x", seed, n, got, stateOf(pcg))
			}
		}
	}
}

// TestStepperMatchesPCG: the walk's stepper yields rand.PCG's words, word
// for word, over 10⁶ draws from each of several seeds.
func TestStepperMatchesPCG(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, math.MaxUint64} {
		pcg := tensor.NewPCG(seed)
		s := stateOf(pcg)
		for i := range draws {
			if got, want := s.next(), pcg.Uint64(); got != want {
				t.Fatalf("seed %d, word %d: stepper %#x, rand.PCG %#x", seed, i, got, want)
			}
		}
		if s != stateOf(pcg) {
			t.Fatalf("seed %d: stepper state %x, rand.PCG %x", seed, s, stateOf(pcg))
		}
	}
}

// TestJumpsEqualSteps: the k-step map the walk's lanes use equals k single
// steps, from states that exercise every carry.
func TestJumpsEqualSteps(t *testing.T) {
	for _, s := range []pcgState{{0, 0}, {0, math.MaxUint64}, {math.MaxUint64, math.MaxUint64}, {1, 2}, stateOf(tensor.NewPCG(9))} {
		stepped := s
		for k := range lanes {
			stepped = pcgStep.apply(stepped)
			if got := jumps[k].apply(s); got != stepped {
				t.Fatalf("from %x: %d-step map gives %x, %d steps %x", s, k+1, got, k+1, stepped)
			}
		}
	}
}

// TestZigguratTable: for each of NormFloat64's 128 strips, a first word at
// |j| = kn[i]−1 settles a draw on that word, of either sign, and one at
// |j| = kn[i] takes more — the derived table is the one NormFloat64 runs.
func TestZigguratTable(t *testing.T) {
	kn := zigguratKn()
	for i, k := range kn {
		if k >= 1<<31 {
			t.Fatalf("strip %d: bound %#x is not below 2³¹", i, k)
		}
		if k > 0 {
			if w := normWords(i, k-1); w != 1 {
				t.Errorf("strip %d: |j| = kn−1 = %#x takes %d words, want 1", i, k-1, w)
			}
			if w := normWords(i, uint32(-int32(k-1))); w != 1 {
				t.Errorf("strip %d: j = −(kn−1) takes %d words, want 1", i, w)
			}
		}
		if w := normWords(i, k); w < 2 {
			t.Errorf("strip %d: |j| = kn = %#x takes %d word, want more", i, k, w)
		}
		if w := normWords(i, uint32(-int32(k))); w < 2 {
			t.Errorf("strip %d: j = −kn takes %d word, want more", i, w)
		}
	}
}

// BenchmarkMake builds the fleets' dataset: SynthMNIST at 201 training and
// 10 test samples per class.
func BenchmarkMake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		madeSink = SynthMNIST(Sizes{TrainPerClass: 201, TestPerClass: 10}, 42)
	}
}

// madeSink keeps BenchmarkMake's datasets live.
var madeSink *Dataset

// TestGatherTrainAllocs: on a warm arena a training gather takes one heap
// allocation, its generator, whatever the family.
func TestGatherTrainAllocs(t *testing.T) {
	for _, name := range []string{"synthmnist", "synthcifar10", "synthsvhn"} {
		ds, _ := ByName(name, Sizes{TrainPerClass: 4, TestPerClass: 2}, 1)
		a := tensor.NewArena()
		idx := []int{3, 0, 17, 9, 9, 25}
		ds.GatherTrainIn(a, idx)
		if n := testing.AllocsPerRun(50, func() {
			a.Reset()
			ds.GatherTrainIn(a, idx)
		}); n > 1 {
			t.Errorf("%s: %.1f heap allocations per gather, want at most 1", name, n)
		}
	}
}

// TestConcurrentGathersMatchSerial: two goroutines, each on its own arena,
// gather overlapping index sets from one dataset and get the bytes a
// serial gather gets.
func TestConcurrentGathersMatchSerial(t *testing.T) {
	ds := synth("synthsvhn", Sizes{TrainPerClass: 20, TestPerClass: 2}, 3)
	sets := [][]int{make([]int, 0, 150), make([]int, 0, 100)}
	for i := 0; i < 150; i++ {
		sets[0] = append(sets[0], i)
	}
	for i := 199; i >= 100; i-- {
		sets[1] = append(sets[1], i)
	}
	want := make([][]float64, len(sets))
	for g, idx := range sets {
		x, _ := ds.GatherTrainIn(tensor.NewArena(), idx)
		want[g] = x.Data()
	}
	var wg sync.WaitGroup
	for g, idx := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := tensor.NewArena()
			for rep := 0; rep < 10; rep++ {
				x, _ := ds.GatherTrainIn(a, idx)
				if !sameBits(x.Data(), want[g]) {
					t.Errorf("goroutine %d, gather %d: bytes differ from the serial gather", g, rep)
					return
				}
				a.Reset()
			}
		}()
	}
	wg.Wait()
}

func TestGatherAndSubset(t *testing.T) {
	ds := SynthMNIST(Sizes{TrainPerClass: 4, TestPerClass: 2}, 2)
	x, y := ds.GatherTrainIn(tensor.NewArena(), []int{0, 3, 5})
	if x.Dim(0) != 3 || len(y) != 3 {
		t.Fatalf("gather sizes: %v / %d", x.Shape(), len(y))
	}
	if y[1] != ds.TrainY[3] {
		t.Fatal("labels misaligned")
	}

	sub := NewSubset(ds, []int{1, 2, 3})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	bx, by := sub.BatchIn(tensor.NewArena(), []int{2, 0})
	if bx.Dim(0) != 2 || by[0] != ds.TrainY[3] || by[1] != ds.TrainY[1] {
		t.Fatal("subset batch misaligned")
	}
}

// TestSubsetSharesIndex: a subset keeps the caller's index slice, not a
// copy of it, so a fleet's shards cost the partition once.
func TestSubsetSharesIndex(t *testing.T) {
	ds := SynthMNIST(Sizes{TrainPerClass: 2, TestPerClass: 1}, 2)
	idx := []int{0, 1}
	if sub := NewSubset(ds, idx); &sub.Idx[0] != &idx[0] || cap(sub.Idx) != cap(idx) {
		t.Fatal("NewSubset copied the index slice")
	}
}

func TestShuffledBatches(t *testing.T) {
	rng := tensor.NewRand(1)
	batches := ShuffledBatches(10, 3, rng)
	if len(batches) != 4 {
		t.Fatalf("batches = %d, want 4", len(batches))
	}
	seen := make(map[int]bool)
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d repeated", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d of 10 indices", len(seen))
	}
	if len(batches[3]) != 1 {
		t.Fatalf("last batch len %d, want 1", len(batches[3]))
	}
}

func TestGatherPanicsOnEmptyAndOutOfRange(t *testing.T) {
	ds := SynthMNIST(Sizes{TrainPerClass: 2, TestPerClass: 1}, 2)
	for name, fn := range map[string]func(){
		"empty":  func() { ds.GatherTrainIn(tensor.NewArena(), nil) },
		"oob":    func() { ds.GatherTrainIn(tensor.NewArena(), []int{9999}) },
		"negidx": func() { ds.GatherTestIn(tensor.NewArena(), []int{-1}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}
