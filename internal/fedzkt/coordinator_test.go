package fedzkt

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

func tinyDataset(seed uint64) *data.Dataset {
	return data.MustMake(data.Config{
		Name: "tiny", Family: data.FamilyDigits, Classes: 4,
		C: 1, H: 8, W: 8,
		TrainPerClass: 30, TestPerClass: 12,
		Seed: seed,
	})
}

func tinyConfig() Config {
	return Config{
		Rounds:       3,
		LocalEpochs:  2,
		DistillIters: 14,
		StudentSteps: 2,
		DistillBatch: 16,
		BatchSize:    16,
		ZDim:         16,
		DeviceLR:     0.05,
		ServerLR:     0.05,
		GenLR:        3e-4,
		Momentum:     0.9,
		Seed:         7,
	}
}

func TestNewValidation(t *testing.T) {
	ds := tinyDataset(1)
	shards := partition.IID(ds.NumTrain(), 2, tensor.NewRand(2))
	if _, err := New(tinyConfig(), ds, nil, shards); err == nil {
		t.Fatal("want error for no architectures")
	}
	if _, err := New(tinyConfig(), ds, []string{"cnn"}, nil); err == nil {
		t.Fatal("want error for no shards")
	}
	if _, err := New(tinyConfig(), ds, []string{"bogus"}, shards); err == nil {
		t.Fatal("want error for unknown architecture")
	}
	if _, err := New(tinyConfig(), ds, []string{"cnn"}, [][]int{{0, 1}, {}}); err == nil {
		t.Fatal("want error for empty shard")
	}
	badK := tinyConfig()
	badK.SampleK = -3
	if _, err := New(badK, ds, []string{"cnn"}, shards); err == nil {
		t.Fatal("want error for negative SampleK")
	}
	badPool := tinyConfig()
	badPool.FailureRate = 1.5
	if _, err := New(badPool, ds, []string{"cnn"}, shards); err == nil {
		t.Fatal("want error for failure rate outside [0,1)")
	}
}

// TestConfigValidate lists every configuration Validate rejects, by the
// words it uses — and NewServer, through which New and the transport
// server are built, must say the same.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.TeachersPerIter = -1 }, "negative TeachersPerIter -1"},
		{func(c *Config) { c.HotSet = -2 }, "negative HotSet -2"},
		{func(c *Config) { c.EvalDevices = -1 }, "negative EvalDevices -1"},
		{func(c *Config) { c.SampleK = -3 }, "negative SampleK -3"},
		{func(c *Config) { c.PipelineDepth = -1 }, "negative PipelineDepth -1"},
		{func(c *Config) { c.ActiveFraction = 1.5 }, "active fraction 1.5 outside (0,1]"},
		{func(c *Config) { c.ActiveFraction = -0.1 }, "active fraction -0.1 outside (0,1]"},
		{func(c *Config) { c.ActiveFraction = math.NaN() }, "active fraction NaN outside (0,1]"},
		{func(c *Config) { c.ReplicaStore = "tape" }, `unknown ReplicaStore "tape" (want "memory" or "spill")`},
		{func(c *Config) { c.StateCodec = "float8" }, `unknown state codec "float8"`},
		{func(c *Config) { c.Rounds = -1 }, "negative Rounds -1"},
		{func(c *Config) { c.BatchSize = -8 }, "negative BatchSize -8"},
		{func(c *Config) { c.Workers = -2 }, "negative Workers -2"},
		{func(c *Config) { c.EvalEvery = -1 }, "negative EvalEvery -1"},
		{func(c *Config) { c.FailureRate = 1 }, "FailureRate 1 outside [0,1)"},
		{func(c *Config) { c.FailureRate = -0.5 }, "FailureRate -0.5 outside [0,1)"},
		{func(c *Config) { c.FailureRate = math.NaN() }, "FailureRate NaN outside [0,1)"},
		{func(c *Config) { c.CheckpointDir, c.CheckpointEvery = "d", -1 }, "negative CheckpointEvery -1"},
		{func(c *Config) { c.CheckpointDir, c.KeepCheckpoints = "d", -1 }, "negative KeepCheckpoints -1"},
		{func(c *Config) { c.Resume = true }, "Resume requires CheckpointDir"},
		{func(c *Config) { c.CheckpointEvery = 2 }, "CheckpointEvery 2 requires CheckpointDir"},
	} {
		cfg := tinyConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate() = %v, want an error containing %q", err, tc.want)
			continue
		}
		if _, serr := NewServer(cfg, tinyShape(), 4); serr == nil || serr.Error() != err.Error() {
			t.Errorf("NewServer rejects with %v, Validate with %v", serr, err)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("the zero Config is all defaults, rejected: %v", err)
	}
	ok := tinyConfig()
	ok.TeachersPerIter, ok.SampleK = 2, 2
	ok.ReplicaStore, ok.StateCodec = ReplicaStoreSpill, "int8"
	ok.CheckpointDir, ok.CheckpointEvery, ok.KeepCheckpoints, ok.Resume = "d", 2, 5, true
	if err := ok.Validate(); err != nil {
		t.Errorf("a valid configuration rejected: %v", err)
	}
	// A bounded device store is no mode of its own: a spill fleet whose
	// trained states outlive their round is accepted.
	spill := tinyConfig()
	spill.ReplicaStore, spill.PipelineDepth = ReplicaStoreSpill, 1
	if err := spill.Validate(); err != nil {
		t.Errorf("a spill configuration at PipelineDepth 1 rejected: %v", err)
	}
}

func TestRunImprovesModels(t *testing.T) {
	ds := tinyDataset(3)
	shards := partition.IID(ds.NumTrain(), 3, tensor.NewRand(4))
	cfg := tinyConfig()
	cfg.Rounds = 4
	cfg.ProbeGradNorm = true
	if testing.Short() {
		// Fast path: too few iterations to assert learning thresholds,
		// but the full round pipeline and its bookkeeping still run.
		cfg.Rounds = 2
		cfg.DistillIters = 6
		cfg.LocalEpochs = 1
	}
	co, err := New(cfg, ds, []string{"cnn", "mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != cfg.Rounds {
		t.Fatalf("history length %d, want %d", len(hist), cfg.Rounds)
	}
	if !testing.Short() {
		// The global model must have learned something real: clearly
		// above the 0.25 chance level of the 4-class task.
		if acc := hist.FinalGlobalAcc(); acc < 0.38 {
			t.Fatalf("global accuracy %.3f after %d rounds; want > 0.38", acc, cfg.Rounds)
		}
		// Devices must improve over the run.
		if hist.FinalMeanDeviceAcc() <= hist[0].MeanDeviceAcc-0.05 {
			t.Fatalf("device accuracy regressed: %.3f -> %.3f", hist[0].MeanDeviceAcc, hist.FinalMeanDeviceAcc())
		}
	}
	// Gradient probe must have produced nonzero norms.
	for _, m := range hist {
		if m.InputGradNorm <= 0 {
			t.Fatalf("round %d: no input gradient recorded", m.Round)
		}
		if m.BytesUp == 0 || m.BytesDown == 0 {
			t.Fatalf("round %d: byte accounting missing", m.Round)
		}
		if len(m.Active) != 3 {
			t.Fatalf("round %d: active=%v, want all 3", m.Round, m.Active)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	ds := tinyDataset(5)
	shards := partition.IID(ds.NumTrain(), 2, tensor.NewRand(6))
	run := func() []float64 {
		cfg := tinyConfig()
		cfg.Rounds = 2
		cfg.DistillIters = 6
		if testing.Short() {
			cfg.Rounds = 1
			cfg.DistillIters = 3
			cfg.LocalEpochs = 1
		}
		co, err := New(cfg, ds, []string{"cnn", "mlp"}, shards)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return append(hist.GlobalAccSeries(), hist.MeanDeviceAccSeries()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestRunStragglerFraction(t *testing.T) {
	ds := tinyDataset(7)
	shards := partition.IID(ds.NumTrain(), 5, tensor.NewRand(8))
	cfg := tinyConfig()
	cfg.Rounds = 2
	cfg.DistillIters = 4
	cfg.ActiveFraction = 0.4
	co, err := New(cfg, ds, []string{"cnn", "mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range hist {
		if len(m.Active) != 2 {
			t.Fatalf("round %d: %d active devices, want 2 (p=0.4 of 5)", m.Round, len(m.Active))
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ds := tinyDataset(9)
	shards := partition.IID(ds.NumTrain(), 2, tensor.NewRand(10))
	co, err := New(tinyConfig(), ds, []string{"cnn"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hist, err := co.Run(ctx)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if len(hist) != 0 {
		t.Fatalf("cancelled run produced %d rounds", len(hist))
	}
}

func TestHeterogeneousStateSizesDiffer(t *testing.T) {
	// The parameters shipped to each device must be the device's own
	// architecture (heterogeneous payload sizes) — the core of FedZKT's
	// "send back on-device model parameters" design.
	ds := tinyDataset(11)
	shards := partition.IID(ds.NumTrain(), 3, tensor.NewRand(12))
	co, err := New(tinyConfig(), ds, []string{"cnn", "mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	for i := range co.Devices() {
		sizes[i] = deviceState(t, co, i).Numel()
	}
	if sizes[0] == sizes[1] || sizes[1] == sizes[2] || sizes[0] == sizes[2] {
		t.Fatalf("expected heterogeneous state sizes, got %v", sizes)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Loss != LossSL {
		t.Fatalf("default loss %v, want SL", cfg.Loss)
	}
	if cfg.ActiveFraction != 1 || cfg.Rounds == 0 || cfg.GenLR == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}
