package fedzkt

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// goldenConfig is the fixed-seed configuration of the determinism golden
// test: small enough to run many times, but exercising partial
// participation (uniform-K sampling) and deterministic failure injection
// so the scheduler's bookkeeping is part of the fingerprint.
func goldenConfig() Config {
	return Config{
		Rounds:       2,
		LocalEpochs:  1,
		DistillIters: 3,
		StudentSteps: 1,
		DistillBatch: 8,
		BatchSize:    8,
		ZDim:         8,
		DeviceLR:     0.05,
		ServerLR:     0.05,
		GenLR:        3e-4,
		Momentum:     0.9,
		Seed:         1234,
		SampleK:      4,
		FailureRate:  0.2,
	}
}

// goldenRun executes one fixed-seed federation and returns its history
// fingerprint.
func goldenRun(t *testing.T, mutate func(*Config)) string {
	t.Helper()
	fp, _ := goldenRunStats(t, mutate)
	return fp
}

// goldenRunStats is goldenRun that also returns the run's device-store
// stats.
func goldenRunStats(t *testing.T, mutate func(*Config)) (string, ReplicaStoreStats) {
	t.Helper()
	ds := data.MustMake(data.Config{
		Name: "golden", Family: data.FamilyDigits, Classes: 3,
		C: 1, H: 8, W: 8, TrainPerClass: 12, TestPerClass: 6, Seed: 55,
	})
	shards := partition.IID(ds.NumTrain(), 6, tensor.NewRand(56))
	cfg := goldenConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	co, err := New(cfg, ds, []string{"mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close() // removes any spill-tier temp dirs
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return hist.Fingerprint(), co.DeviceStoreStats()
}

// TestSchedulerDeterminismGolden is the golden determinism test: a short
// fixed-seed FedZKT run must produce byte-identical round metrics under
// the reference scheduler (Workers: 1) and under the parallel pool at every
// worker count. Any hidden cross-device state — a shared RNG, a data
// race, order-dependent aggregation — breaks this immediately.
func TestSchedulerDeterminismGolden(t *testing.T) {
	ref := goldenRun(t, func(c *Config) { c.Workers = 1 })
	if ref == "" {
		t.Fatal("empty reference fingerprint")
	}
	workerCounts := []int{2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		workerCounts = []int{2, 4, 8}
	}
	for _, w := range workerCounts {
		w := w
		got := goldenRun(t, func(c *Config) { c.Workers = w })
		if got != ref {
			t.Fatalf("workers=%d fingerprint diverges from the workers=1 reference:\n--- workers=1 ---\n%s--- workers=%d ---\n%s", w, ref, w, got)
		}
	}
}

// TestSchedulerDeterminismRepeatable pins the weaker but independent
// property that two identical parallel runs agree with each other (a
// wall-clock or map-iteration dependence would already break this).
func TestSchedulerDeterminismRepeatable(t *testing.T) {
	a := goldenRun(t, func(c *Config) { c.Workers = 4 })
	b := goldenRun(t, func(c *Config) { c.Workers = 4 })
	if a != b {
		t.Fatalf("repeat run diverged:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// preCohortGoldenFingerprint is the golden run's History.Fingerprint as
// produced by the pre-cohort server (flat replicas, full ensemble),
// recorded before the architecture-cohort refactor landed. The exact mode
// (TeachersPerIter = 0) must keep reproducing it byte for byte: the cohort
// subsystem, state swapping, and hoisted transfer-back constants are
// required to be pure implementation changes.
const preCohortGoldenFingerprint = "round=1 active=[1 2 3 5] dropped=[] injected=[] up=460512 down=460512 global=0.3888888888888889 mean=0.3703703703703703 gradnorm=0 dev=[0.4444444444444444 0.3333333333333333 0.3333333333333333 0.3333333333333333 0.3888888888888889 0.3888888888888889]\n" +
	"round=2 active=[0 1 2 3] dropped=[] injected=[] up=839520 down=839520 global=0.3333333333333333 mean=0.39814814814814814 gradnorm=0 dev=[0.5555555555555556 0.4444444444444444 0.2777777777777778 0.3333333333333333 0.3888888888888889 0.3888888888888889]\n"

// TestExactModeMatchesPreCohortFingerprint pins exact-mode equivalence
// across the cohort refactor: the default TeachersPerIter=0 configuration
// must reproduce the recorded pre-refactor fingerprint bit for bit. The
// recorded constant is amd64 floating-point output; other architectures
// may legally fuse multiply-adds, so the byte comparison is gated.
func TestExactModeMatchesPreCohortFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned fingerprint recorded on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	got := goldenRun(t, func(c *Config) { c.Workers = 1 })
	if got != preCohortGoldenFingerprint {
		t.Fatalf("exact mode diverged from the pre-cohort reference:\n--- recorded ---\n%s--- got ---\n%s",
			preCohortGoldenFingerprint, got)
	}
}

// probedGradNorms are the golden run's per-round InputGradNorm with
// ProbeGradNorm on, recorded while Backward still kept every interior
// gradient until the step's Reset.
var probedGradNorms = []string{"0.004181085611631357", "0.003557219360917853"}

// TestProbeGradNormGolden pins the Figure 2 probe: the generator output's
// gradient, the one interior gradient the server reads after Backward
// (kept by RetainGrad), gives the recorded norms, and probing leaves the
// rest of the pre-cohort fingerprint untouched — on one worker and on four
// workers, whose teacher tapes hand their gradients back to the workers'
// arenas.
func TestProbeGradNormGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned fingerprint recorded on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	want := preCohortGoldenFingerprint
	for _, g := range probedGradNorms {
		want = strings.Replace(want, "gradnorm=0 ", "gradnorm="+g+" ", 1)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Workers = 1 },
		func(c *Config) { c.Workers = 4 },
	} {
		got := goldenRun(t, func(c *Config) { mutate(c); c.ProbeGradNorm = true })
		if got != want {
			t.Fatalf("probed run diverged from the recorded norms:\n--- recorded ---\n%s--- got ---\n%s", want, got)
		}
	}
}

// TestSchedulerDeterminismGoldenSampledTeachers extends the golden test to
// the sampled-teacher server: with TeachersPerIter set, the fingerprint
// must still be byte-identical between the reference scheduler (Workers: 1)
// and the parallel pool at every worker count (one subtest, named for the
// one policy: a uniform draw without replacement).
func TestSchedulerDeterminismGoldenSampledTeachers(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		mutate := func(c *Config) { c.TeachersPerIter = 2 }
		ref := goldenRun(t, func(c *Config) { mutate(c); c.Workers = 1 })
		if ref == "" {
			t.Fatal("empty reference fingerprint")
		}
		if exact := goldenRun(t, func(c *Config) { c.Workers = 1 }); exact == ref {
			t.Fatal("sampled-teacher run unexpectedly identical to the full ensemble")
		}
		workerCounts := []int{3, 8}
		if testing.Short() {
			workerCounts = []int{4}
		}
		for _, w := range workerCounts {
			got := goldenRun(t, func(c *Config) { mutate(c); c.Workers = w })
			if got != ref {
				t.Fatalf("workers=%d fingerprint diverges from the workers=1 reference:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
					w, ref, w, got)
			}
		}
	})
}

// TestStateCodecDeterminismGolden extends the golden scheme to the
// quantised state codecs: with int8 or float16 replica slots and wire
// payloads, the fingerprint must still be byte-identical between the
// reference scheduler (Workers: 1) and the parallel pool at every worker
// count — quantisation points are a pure function of the data flow, never
// of scheduling. The quantised fingerprints must also differ from the
// dense run's: the codec width changes the byte accounting by
// construction (and the quantised grid perturbs training).
func TestStateCodecDeterminismGolden(t *testing.T) {
	denseRef := goldenRun(t, func(c *Config) { c.Workers = 1 })
	codecs := []string{"int8", "float16"}
	if testing.Short() {
		// int8 exercises every quantised code path float16 does; one
		// codec keeps the -short (and -race -short) budget.
		codecs = codecs[:1]
	}
	for _, name := range codecs {
		name := name
		t.Run(name, func(t *testing.T) {
			mutate := func(c *Config) { c.StateCodec = name }
			ref := goldenRun(t, func(c *Config) { mutate(c); c.Workers = 1 })
			if ref == "" {
				t.Fatal("empty reference fingerprint")
			}
			if ref == denseRef {
				t.Fatal("quantised run unexpectedly identical to the dense pipeline")
			}
			workerCounts := []int{2, 4, 8}
			if testing.Short() {
				workerCounts = []int{4}
			}
			for _, w := range workerCounts {
				got := goldenRun(t, func(c *Config) { mutate(c); c.Workers = w })
				if got != ref {
					t.Fatalf("codec=%s workers=%d fingerprint diverges from the workers=1 reference:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
						name, w, ref, w, got)
				}
			}
		})
	}
}

// TestFloat64CodecMatchesDefault pins that naming the identity codec
// explicitly is a no-op: StateCodec "float64" reproduces the default
// configuration bit for bit, payload plumbing and all — which also keeps
// it on the recorded pre-cohort golden fingerprint.
func TestFloat64CodecMatchesDefault(t *testing.T) {
	def := goldenRun(t, func(c *Config) { c.Workers = 1 })
	f64 := goldenRun(t, func(c *Config) { c.Workers = 1; c.StateCodec = "float64" })
	if f64 != def {
		t.Fatalf("explicit float64 codec diverged from the default:\n--- default ---\n%s--- float64 ---\n%s", def, f64)
	}
}

// TestStateCodecDeterminismPipelined runs the quantised codec on the
// staged pipelined engine: staleness and quantisation must compose
// deterministically across worker counts.
func TestStateCodecDeterminismPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the synchronous codec golden; skipped in -short")
	}
	mutate := func(c *Config) { c.StateCodec = "int8"; c.PipelineDepth = 1 }
	ref := goldenRun(t, func(c *Config) { mutate(c); c.Workers = 1 })
	if got := goldenRun(t, func(c *Config) { mutate(c); c.Workers = 4 }); got != ref {
		t.Fatalf("pipelined int8 workers=4 diverges from the workers=1 reference:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", ref, got)
	}
}

// TestPipelinedDeterminismGolden extends the golden scheme to the staged
// pipelined engine: for a fixed PipelineDepth the fingerprint must be
// byte-identical between the reference scheduler (Workers: 1) and the
// parallel pool at every worker count — download application points,
// absorb order and evaluation are required to be pure functions of
// (depth, round), never of stage timing. The pipelined fingerprint must
// also differ from the synchronous barrier's: depth ≥ 1 trains on
// bounded-stale parameters by design.
func TestPipelinedDeterminismGolden(t *testing.T) {
	syncRef := goldenRun(t, func(c *Config) { c.Workers = 1 })
	for _, depth := range []int{1, 2} {
		depth := depth
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			mutate := func(c *Config) { c.PipelineDepth = depth }
			ref := goldenRun(t, func(c *Config) { mutate(c); c.Workers = 1 })
			if ref == "" {
				t.Fatal("empty reference fingerprint")
			}
			if ref == syncRef {
				t.Fatal("pipelined run unexpectedly identical to the synchronous barrier")
			}
			workerCounts := []int{2, 3, 4, 5, 6, 7, 8}
			if testing.Short() {
				workerCounts = []int{2, 4, 8}
			}
			for _, w := range workerCounts {
				got := goldenRun(t, func(c *Config) { mutate(c); c.Workers = w })
				if got != ref {
					t.Fatalf("depth=%d workers=%d fingerprint diverges from the workers=1 reference:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
						depth, w, ref, w, got)
				}
			}
		})
	}
}

// TestPipelinedDepthsDiverge pins that different pipeline depths are
// different algorithms: each depth trains on a different staleness, so
// the learned global models must not coincide bit for bit (a collision
// would mean the staleness barrier is not wired to the configured
// depth). The run needs at least three rounds — round r first consumes a
// download at r = 2+depth, so a two-round run never tells 1 from 2. The
// golden fingerprint is too coarse here: on the tiny golden test set,
// accuracies quantise away small weight divergences.
func TestPipelinedDepthsDiverge(t *testing.T) {
	globalAfter := func(depth int) nn.StateDict {
		ds := data.MustMake(data.Config{
			Name: "golden", Family: data.FamilyDigits, Classes: 3,
			C: 1, H: 8, W: 8, TrainPerClass: 12, TestPerClass: 6, Seed: 55,
		})
		shards := partition.IID(ds.NumTrain(), 6, tensor.NewRand(56))
		cfg := goldenConfig()
		cfg.Rounds = 3
		cfg.Workers = 1
		cfg.PipelineDepth = depth
		co, err := New(cfg, ds, []string{"mlp", "lenet-s"}, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return nn.CaptureState(co.Global())
	}
	a, b := globalAfter(1), globalAfter(2)
	for name, w := range a {
		if tensor.MaxAbsDiff(b[name], w) != 0 {
			return // diverged, as required
		}
	}
	t.Fatal("depth 1 and depth 2 learned bit-identical global models")
}

// TestFailureInjectionSurfacesInMetrics checks that the injected-failure
// bookkeeping reaches the history and that injected devices are excluded
// from aggregation accounting. The second input injects every participant
// of round 3: that round absorbs nothing and uploads no byte, and the run
// still completes on the stale replicas. Either run's fingerprint is the
// same at Workers 1 and Workers 4.
func TestFailureInjectionSurfacesInMetrics(t *testing.T) {
	ds := data.MustMake(data.Config{
		Name: "inj", Family: data.FamilyDigits, Classes: 3,
		C: 1, H: 8, W: 8, TrainPerClass: 10, TestPerClass: 5, Seed: 90,
	})
	shards := partition.IID(ds.NumTrain(), 8, tensor.NewRand(91))
	for _, tc := range []struct {
		rate       float64
		seed       uint64
		emptyRound int // a round that injects every participant, or 0
	}{{0.45, 77, 0}, {0.5, 1, 3}} {
		t.Run(fmt.Sprintf("rate%v-seed%d", tc.rate, tc.seed), func(t *testing.T) {
			run := func(workers int) (fed.History, *Coordinator) {
				cfg := goldenConfig()
				cfg.Rounds = 4
				cfg.SampleK = 8
				cfg.FailureRate = tc.rate
				cfg.Seed = tc.seed
				cfg.Workers = workers
				co, err := New(cfg, ds, []string{"mlp"}, shards)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = co.Close() })
				hist, err := co.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return hist, co
			}
			hist, co := run(4)
			if ref, _ := run(1); ref.Fingerprint() != hist.Fingerprint() {
				t.Fatalf("workers=4 fingerprint diverges from the workers=1 reference:\n--- workers=1 ---\n%s--- workers=4 ---\n%s",
					ref.Fingerprint(), hist.Fingerprint())
			}
			if len(hist) != 4 {
				t.Fatalf("run finalised %d rounds, want 4", len(hist))
			}
			injected := 0
			for _, m := range hist {
				injected += len(m.Injected)
				if completed := len(m.Active) - len(m.Injected) - len(m.Dropped); completed > 0 && m.BytesUp == 0 {
					t.Fatalf("round %d: %d completed devices but no uploaded bytes", m.Round, completed)
				}
				if m.Round == tc.emptyRound {
					if len(m.Injected) != len(m.Active) || m.Absorbed != 0 || m.BytesUp != 0 {
						t.Fatalf("round %d: injected %v of %v, absorbed %d, %d bytes up; want every participant injected, nothing absorbed or uploaded",
							m.Round, m.Injected, m.Active, m.Absorbed, m.BytesUp)
					}
				}
			}
			if injected == 0 {
				t.Fatalf("failure rate %v over 32 device-rounds injected nothing", tc.rate)
			}
			if got := co.Pool().Stats().Injected.Load(); got != int64(injected) {
				t.Fatalf("pool stats injected=%d, history says %d", got, injected)
			}
		})
	}
}
