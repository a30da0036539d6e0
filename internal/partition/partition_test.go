package partition

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// mkLabels builds n labels cycling over numClasses.
func mkLabels(n, numClasses int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % numClasses
	}
	return labels
}

// checkDisjointCover verifies the fundamental partition invariants: shards
// are disjoint and their union covers a subset of [0,n) without repeats.
func checkDisjointCover(t *testing.T, shards [][]int, n int, wantFull bool) {
	t.Helper()
	seen := make(map[int]bool)
	total := 0
	for _, shard := range shards {
		for _, i := range shard {
			if i < 0 || i >= n {
				t.Fatalf("index %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("index %d appears in two shards", i)
			}
			seen[i] = true
			total++
		}
	}
	if wantFull && total != n {
		t.Fatalf("partition covers %d of %d samples", total, n)
	}
}

func TestIIDInvariants(t *testing.T) {
	rng := tensor.NewRand(1)
	shards := IID(103, 10, rng)
	checkDisjointCover(t, shards, 103, true)
	for i, s := range shards {
		if len(s) < 10 || len(s) > 11 {
			t.Fatalf("shard %d has %d samples, want 10 or 11", i, len(s))
		}
	}
}

func TestIIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < k")
		}
	}()
	IID(3, 10, tensor.NewRand(1))
}

func TestQuantitySkewClassesPerDevice(t *testing.T) {
	const n, numClasses, k, cpd = 1000, 10, 10, 3
	labels := mkLabels(n, numClasses)
	rng := tensor.NewRand(2)
	shards := QuantitySkew(labels, numClasses, k, cpd, rng)
	checkDisjointCover(t, shards, n, true)
	for dev, shard := range shards {
		classes := make(map[int]bool)
		for _, i := range shard {
			classes[labels[i]] = true
		}
		if len(classes) != cpd {
			t.Fatalf("device %d holds %d classes, want %d", dev, len(classes), cpd)
		}
	}
}

func TestQuantitySkewCoversAllClassesWhenPossible(t *testing.T) {
	// k*cpd = 20 >= 10 classes: every class must be held somewhere.
	labels := mkLabels(500, 10)
	shards := QuantitySkew(labels, 10, 10, 2, tensor.NewRand(3))
	held := make(map[int]bool)
	for _, shard := range shards {
		for _, i := range shard {
			held[labels[i]] = true
		}
	}
	if len(held) != 10 {
		t.Fatalf("only %d of 10 classes assigned", len(held))
	}
	checkDisjointCover(t, shards, 500, true)
}

func TestQuantitySkewProperty(t *testing.T) {
	f := func(seed uint64, k8, cpd8 uint8) bool {
		k := int(k8%15) + 2
		cpd := int(cpd8%5) + 1
		const numClasses = 10
		labels := mkLabels(40*numClasses, numClasses)
		shards := QuantitySkew(labels, numClasses, k, cpd, tensor.NewRand(seed))
		seen := make(map[int]bool)
		for dev, shard := range shards {
			classes := make(map[int]bool)
			for _, i := range shard {
				if seen[i] {
					return false
				}
				seen[i] = true
				classes[labels[i]] = true
			}
			if len(classes) > cpd {
				return false
			}
			_ = dev
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletInvariantsAndSkew(t *testing.T) {
	const n, numClasses, k = 2000, 10, 10
	labels := mkLabels(n, numClasses)

	shardsSkew := Dirichlet(labels, numClasses, k, 0.1, tensor.NewRand(4))
	checkDisjointCover(t, shardsSkew, n, true)
	shardsFlat := Dirichlet(labels, numClasses, k, 100, tensor.NewRand(4))
	checkDisjointCover(t, shardsFlat, n, true)

	// Measure label imbalance as the mean per-device entropy of the label
	// distribution; small β must yield lower entropy than large β.
	entropy := func(shards [][]int) float64 {
		total := 0.0
		for _, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			counts := make([]float64, numClasses)
			for _, i := range shard {
				counts[labels[i]]++
			}
			h := 0.0
			for _, c := range counts {
				if c > 0 {
					p := c / float64(len(shard))
					h -= p * math.Log(p)
				}
			}
			total += h
		}
		return total / float64(len(shards))
	}
	hSkew, hFlat := entropy(shardsSkew), entropy(shardsFlat)
	if hSkew >= hFlat-0.3 {
		t.Fatalf("β=0.1 entropy %.3f not clearly below β=100 entropy %.3f", hSkew, hFlat)
	}
}

func TestDirichletNoEmptyDevices(t *testing.T) {
	labels := mkLabels(300, 10)
	for seed := uint64(0); seed < 20; seed++ {
		shards := Dirichlet(labels, 10, 15, 0.1, tensor.NewRand(seed))
		for dev, shard := range shards {
			if len(shard) == 0 {
				t.Fatalf("seed %d: device %d empty", seed, dev)
			}
		}
		checkDisjointCover(t, shards, 300, true)
	}
}

func TestDirichletPanicsOnBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for beta <= 0")
		}
	}()
	Dirichlet(mkLabels(10, 2), 2, 2, 0, tensor.NewRand(1))
}

func TestGammaSampleMoments(t *testing.T) {
	// Gamma(shape,1) has mean == shape and variance == shape.
	rng := tensor.NewRand(9)
	for _, shape := range []float64{0.3, 1.0, 4.5} {
		const n = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := gammaSample(shape, rng)
			if x <= 0 {
				t.Fatalf("gamma sample %v not positive", x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-shape) > 0.1*shape+0.05 {
			t.Fatalf("shape %v: mean %v", shape, mean)
		}
		if math.Abs(variance-shape) > 0.25*shape+0.1 {
			t.Fatalf("shape %v: variance %v", shape, variance)
		}
	}
}

func TestPartitionsDeterministic(t *testing.T) {
	labels := mkLabels(500, 10)
	a := Dirichlet(labels, 10, 8, 0.5, tensor.NewRand(42))
	b := Dirichlet(labels, 10, 8, 0.5, tensor.NewRand(42))
	for dev := range a {
		if len(a[dev]) != len(b[dev]) {
			t.Fatal("same seed produced different partitions")
		}
		for i := range a[dev] {
			if a[dev][i] != b[dev][i] {
				t.Fatal("same seed produced different partitions")
			}
		}
	}
}

// TestDirichletEdgeCases is the table-driven edge matrix for the
// Dirichlet partitioner: alpha extremes, fewer samples than shards, and
// device counts around the sample count. Every case must preserve the
// disjoint-cover invariant; the per-case check pins the distributional
// property.
func TestDirichletEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		n, classes int
		k          int
		beta       float64
		check      func(t *testing.T, shards [][]int)
	}{
		{
			name: "tiny alpha concentrates classes", n: 200, classes: 4, k: 4, beta: 1e-6,
			check: func(t *testing.T, shards [][]int) {
				// With β→0 each class lands almost entirely on one device:
				// the biggest shard should hold roughly a whole class share
				// or more.
				max := 0
				for _, s := range shards {
					if len(s) > max {
						max = len(s)
					}
				}
				if max < 200/4 {
					t.Fatalf("beta=1e-6: largest shard %d, want >= one class (50)", max)
				}
			},
		},
		{
			name: "huge alpha approaches uniform", n: 400, classes: 4, k: 4, beta: 1e6,
			check: func(t *testing.T, shards [][]int) {
				for i, s := range shards {
					if len(s) < 60 || len(s) > 140 {
						t.Fatalf("beta=1e6: shard %d has %d of 400 samples, want near 100", i, len(s))
					}
				}
			},
		},
		{
			name: "fewer samples than shards", n: 5, classes: 5, k: 12, beta: 0.5,
			check: func(t *testing.T, shards [][]int) {
				// 5 samples cannot feed 12 devices; some stay empty but no
				// sample may be lost or duplicated (checkDisjointCover) and
				// non-empty shards hold at least one sample.
				nonEmpty := 0
				for _, s := range shards {
					if len(s) > 0 {
						nonEmpty++
					}
				}
				if nonEmpty == 0 || nonEmpty > 5 {
					t.Fatalf("non-empty shards = %d, want in [1,5]", nonEmpty)
				}
			},
		},
		{
			name: "one sample per device boundary", n: 8, classes: 2, k: 8, beta: 1,
			check: func(t *testing.T, shards [][]int) {},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			shards := Dirichlet(mkLabels(c.n, c.classes), c.classes, c.k, c.beta, tensor.NewRand(99))
			if len(shards) != c.k {
				t.Fatalf("got %d shards, want %d", len(shards), c.k)
			}
			checkDisjointCover(t, shards, c.n, true)
			c.check(t, shards)
		})
	}
}

// TestQuantitySkewEdgeCases is the table-driven edge matrix for the
// quantity-skew partitioner, centred on single-class devices.
func TestQuantitySkewEdgeCases(t *testing.T) {
	cases := []struct {
		name             string
		n, classes       int
		k, cpd           int
		wantFullCoverage bool
	}{
		{name: "single-class devices cover all classes", n: 120, classes: 4, k: 8, cpd: 1, wantFullCoverage: true},
		{name: "single-class fewer devices than classes", n: 120, classes: 6, k: 3, cpd: 1, wantFullCoverage: false},
		{name: "every device holds every class", n: 90, classes: 3, k: 5, cpd: 3, wantFullCoverage: true},
		{name: "one device takes all", n: 40, classes: 4, k: 1, cpd: 4, wantFullCoverage: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			labels := mkLabels(c.n, c.classes)
			shards := QuantitySkew(labels, c.classes, c.k, c.cpd, tensor.NewRand(7))
			checkDisjointCover(t, shards, c.n, c.wantFullCoverage)
			for dev, s := range shards {
				held := map[int]bool{}
				for _, i := range s {
					held[labels[i]] = true
				}
				if len(held) > c.cpd {
					t.Fatalf("device %d holds %d classes, want <= %d", dev, len(held), c.cpd)
				}
			}
			if c.wantFullCoverage {
				covered := map[int]bool{}
				for _, s := range shards {
					for _, i := range s {
						covered[labels[i]] = true
					}
				}
				if len(covered) != c.classes {
					t.Fatalf("only %d of %d classes covered", len(covered), c.classes)
				}
			}
		})
	}
}

// TestByRegime: the one parser of the regime vocabulary accepts the three
// regimes (and "" as iid), rejects malformed or out-of-range arguments by
// error rather than by the partitioners' panics, and for a fixed seed
// returns exactly what the direct call returns — so moving a caller onto
// it moves no shard.
func TestByRegime(t *testing.T) {
	const classes, k = 4, 3
	labels := mkLabels(60, classes)
	rng := func() *rand.Rand { return tensor.NewRand(17) }
	for _, tc := range []struct {
		spec string
		want [][]int // nil: want an error
	}{
		{"iid", IID(len(labels), k, rng())},
		{"", IID(len(labels), k, rng())},
		{"quantity:2", QuantitySkew(labels, classes, k, 2, rng())},
		{"dirichlet:0.5", Dirichlet(labels, classes, k, 0.5, rng())},
		{"quantity:0", nil},
		{"quantity:5", nil}, // more classes per device than classes
		{"quantity:x", nil},
		{"dirichlet:-1", nil},
		{"dirichlet:", nil},
		{"dirichlet:NaN", nil},
		{"zipf:2", nil},
	} {
		got, err := ByRegime(tc.spec, labels, classes, k, rng())
		if tc.want == nil {
			if err == nil {
				t.Errorf("ByRegime(%q) accepted", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ByRegime(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ByRegime(%q) differs from the direct call with the same rng", tc.spec)
		}
		checkDisjointCover(t, got, len(labels), true)
	}
}
