package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// scaleDeviceCounts is the default device-count sweep per scale. The
// paper evaluates at 10 devices; this scenario pushes the sharded round
// scheduler into the cross-device regime (hundreds to a thousand
// simulated devices with partial participation), the scaling axis of
// systems like Fed-ET and GKT.
func scaleDeviceCounts(s Scale) []int {
	switch s {
	case ScaleSmoke:
		return []int{8, 32}
	case ScaleFull:
		return []int{128, 512, 1000}
	default:
		return []int{32, 128, 512}
	}
}

// scaleTeachersPerIter is the sampled-teacher budget the sweep's sampled
// arm uses. The sweep always runs both regimes — that comparison is its
// purpose — so unlike everywhere else, TeachersPerIter = 0 here means
// "default sampled budget (8)", not "exact mode only"; the full-ensemble
// reference arm is always measured alongside.
func scaleTeachersPerIter(p Params) int {
	if p.Fed.TeachersPerIter > 0 {
		return p.Fed.TeachersPerIter
	}
	return 8
}

// scalePipelineDepth is the staleness the sweep's pipelined arm uses. As
// with the teacher budget, the sweep always compares synchronous against
// pipelined, so PipelineDepth = 0 here means "default depth (1)".
func scalePipelineDepth(p Params) int {
	if p.Fed.PipelineDepth > 0 {
		return p.Fed.PipelineDepth
	}
	return 1
}

// ScaleSweep is the device-count scaling scenario (beyond the paper):
// for each federation size it runs three short FedZKT federations on the
// sharded scheduler with uniform-K partial participation and mild failure
// injection — the paper-exact full teacher ensemble, the cohort server
// sampling TeachersPerIter teachers per distillation iteration, and the
// sampled server again on the pipelined round engine — and reports
// participation accounting, the server-phase wall time of the first two
// regimes, the synchronous-vs-pipelined end-to-end wall time, and the
// sampled run's accuracy. A second table re-runs the sampled arm under
// every state codec and reports resident replica-slot bytes per device,
// wire traffic per round, and the accuracy delta against the dense
// float64 run — the memory/traffic/accuracy trade-off surface of the
// codec subsystem. A third table re-runs the sampled arm on the
// spill-tier replica store (sharded cohorts, virtual devices) and
// reports hot-set hit rate, prefetch overlap, spill I/O, and whether the
// run's fingerprint stayed byte-identical to the in-memory arm — a live
// check of the storage layer's determinism contract. It is the
// regression harness for every future scaling change.
func ScaleSweep(p Params) (*Result, error) {
	depth := scalePipelineDepth(p)
	t := &Table{
		ID:    "scale",
		Title: "Device-count scaling on the sharded scheduler (SynthMNIST, IID)",
		Header: []string{"Devices", "Policy", "K/round", "Completed", "Dropped", "Injected",
			"Mean round time", "Server full", "Server sampled", "Server speedup",
			"Wall sync", fmt.Sprintf("Wall depth=%d", depth), "Pipeline speedup",
			"Global acc", "Mean device acc"},
	}
	tc := &Table{
		ID:    "scale-codec",
		Title: "State-codec trade-off on the sampled server arm (resident slot bytes, wire traffic, accuracy)",
		Header: []string{"Devices", "Codec", "State B/device", "State ratio",
			"Wire MB/round", "Global acc", "Δ acc vs float64"},
	}
	ts := &Table{
		ID:    "scale-store",
		Title: "Spill-tier replica store on the sampled server arm (hot-set traffic, spill I/O, byte-identity)",
		Header: []string{"Devices", "Store", "Shards", "Hot slots", "Hit rate",
			"Prefetch overlap", "Spill R/W MB", "Fingerprint vs memory"},
	}
	teachers := scaleTeachersPerIter(p)
	counts := p.ScaleDevices
	if len(counts) == 0 {
		counts = scaleDeviceCounts(p.Scale)
	}
	for i, k := range counts {
		if k < 1 {
			return nil, fmt.Errorf("scale: device count %d", k)
		}
		// Size the dataset so every device holds at least ~2 samples.
		pk := p
		pk.TrainPerClass = max(p.TrainPerClass, (2*k)/10+1)
		ds, err := buildDataset("synthmnist", pk)
		if err != nil {
			return nil, err
		}
		shards := partition.IID(ds.NumTrain(), k, tensor.NewRand(p.Fed.Seed+0x5CA1E+uint64(i)))

		cfg := p.fedzktConfig("synthmnist", 120+uint64(i))
		cfg.Rounds = 2
		cfg.LocalEpochs = 1
		cfg.DistillIters = min(p.DistillIters, 8)
		cfg.EvalEvery = cfg.Rounds // final-round evaluation only
		if cfg.SampleK == 0 {
			cfg.SampleK = min(32, max(k/8, 4))
		}
		cfg.FailureRate = 0.1
		// Only the pipelined arm runs pipelined: a -pipeline-depth flag
		// sizes that arm (scalePipelineDepth) and must not leak into the
		// synchronous reference arms or the codec table, which would
		// compare depth-D against depth-D and mislabel every column.
		cfg.PipelineDepth = 0

		// A cheap heterogeneous pair: the property under test is device
		// count, not model capacity.
		archs := model.ZooFor([]string{"mlp", "lenet-s"}, k)

		// Full-ensemble reference: the pre-cohort server regime, every
		// replica a teacher every iteration.
		full := cfg
		full.TeachersPerIter = 0
		fullHist, _, err := runScaleCell(full, ds, archs, shards)
		if err != nil {
			return nil, fmt.Errorf("scale %d devices (full ensemble): %w", k, err)
		}

		// Sampled cohort server: T teachers per iteration, synchronous
		// barrier. This arm is both the server-sampling comparison point
		// and the pipelined arm's wall-time baseline.
		sampled := cfg
		sampled.TeachersPerIter = teachers
		syncStart := time.Now()
		hist, co, err := runScaleCell(sampled, ds, archs, shards)
		if err != nil {
			return nil, fmt.Errorf("scale %d devices (teachers=%d): %w", k, teachers, err)
		}
		wallSync := time.Since(syncStart)

		// Pipelined round engine over the same sampled configuration:
		// round r+1's local phase overlaps round r's server distillation.
		piped := sampled
		piped.PipelineDepth = depth
		pipedStart := time.Now()
		if _, _, err := runScaleCell(piped, ds, archs, shards); err != nil {
			return nil, fmt.Errorf("scale %d devices (pipeline depth=%d): %w", k, depth, err)
		}
		wallPiped := time.Since(pipedStart)
		pipeSpeedup := "n/a"
		if wallPiped > 0 {
			pipeSpeedup = fmt.Sprintf("%.2f×", float64(wallSync)/float64(wallPiped))
		}

		// Spill-tier arm: the same sampled configuration on the tiered
		// replica store with sharded cohorts and virtual devices. The
		// store is a pure storage-layer change, so its history must be
		// byte-identical to the in-memory run — the fingerprint column is
		// a live determinism check, not just observability.
		spillArm := sampled
		spillArm.ReplicaStore = fedzkt.ReplicaStoreSpill
		spillArm.ReplicaShards = max(2, sampled.ReplicaShards)
		spillArm.VirtualDevices = sampled.RoundDeadline == 0
		spillHist, spillCo, err := runScaleCell(spillArm, ds, archs, shards)
		if err != nil {
			return nil, fmt.Errorf("scale %d devices (spill store): %w", k, err)
		}
		st := spillCo.Server().ReplicaStoreStats()
		match := "match"
		if spillHist.Fingerprint() != hist.Fingerprint() {
			match = "DIVERGED"
		}
		ts.AddRow(
			fmt.Sprintf("%d", k),
			st.Mode,
			fmt.Sprintf("%d", st.Shards),
			fmt.Sprintf("%d", st.HotEntries),
			fmt.Sprintf("%.1f%%", 100*st.HitRate()),
			fmt.Sprintf("%.1f%%", 100*st.PrefetchOverlap()),
			fmt.Sprintf("%.2f/%.2f", float64(st.SpillReadBytes)/1e6, float64(st.SpillWriteBytes)/1e6),
			match,
		)
		if err := spillCo.Close(); err != nil {
			return nil, fmt.Errorf("scale %d devices (spill store close): %w", k, err)
		}

		// State-codec arms: the same sampled configuration under each
		// registered codec, float64 first so the accuracy deltas have
		// their reference. The arm whose codec matches the already-run
		// `sampled` arm reuses that run — byte-identical configuration —
		// instead of paying a whole federation again.
		sampledCodec := sampled.StateCodec
		if sampledCodec == "" {
			sampledCodec = codec.Float64
		}
		var denseAcc float64
		var denseBytes int64
		for _, codecName := range codec.Names() {
			armHist, armCo := hist, co
			if codecName != sampledCodec {
				arm := sampled
				arm.StateCodec = codecName
				var err error
				armHist, armCo, err = runScaleCell(arm, ds, archs, shards)
				if err != nil {
					return nil, fmt.Errorf("scale %d devices (codec=%s): %w", k, codecName, err)
				}
			}
			srv := armCo.Server()
			acc := armHist.FinalGlobalAcc()
			var wire int64
			for _, m := range armHist {
				wire += m.BytesUp + m.BytesDown
			}
			bytesPerDevice := srv.ResidentStateBytes() / int64(k)
			delta, ratio := "—", "1.00×"
			if codecName == codec.Float64 {
				denseAcc = acc
				denseBytes = bytesPerDevice
			} else {
				delta = fmt.Sprintf("%+.2fpp", 100*(acc-denseAcc))
				if bytesPerDevice > 0 {
					ratio = fmt.Sprintf("%.2f×", float64(denseBytes)/float64(bytesPerDevice))
				}
			}
			tc.AddRow(
				fmt.Sprintf("%d", k),
				codecName,
				fmt.Sprintf("%d", bytesPerDevice),
				ratio,
				fmt.Sprintf("%.3f", float64(wire)/float64(len(armHist))/1e6),
				pct(acc),
				delta,
			)
		}

		var roundTime time.Duration
		for _, m := range hist {
			roundTime += m.Elapsed
		}
		if len(hist) > 0 {
			roundTime /= time.Duration(len(hist))
		}
		serverFull := fullHist.MeanServerElapsed()
		serverSampled := hist.MeanServerElapsed()
		speedup := "n/a"
		if serverSampled > 0 {
			speedup = fmt.Sprintf("%.1f×", float64(serverFull)/float64(serverSampled))
		}
		stats := co.Pool().Stats()
		t.AddRow(
			fmt.Sprintf("%d", k),
			co.Sampler().Name(),
			fmt.Sprintf("%d", cfg.SampleK),
			fmt.Sprintf("%d", stats.Completed.Load()),
			fmt.Sprintf("%d", stats.Dropped.Load()),
			fmt.Sprintf("%d", stats.Injected.Load()),
			roundTime.Round(time.Millisecond).String(),
			serverFull.Round(time.Millisecond).String(),
			serverSampled.Round(time.Millisecond).String(),
			speedup,
			wallSync.Round(time.Millisecond).String(),
			wallPiped.Round(time.Millisecond).String(),
			pipeSpeedup,
			pct(hist.FinalGlobalAcc()),
			pct(hist.FinalMeanDeviceAcc()),
		)
	}
	return &Result{Tables: []*Table{t, tc, ts}}, nil
}

// runScaleCell builds and runs one federation of the sweep.
func runScaleCell(cfg fedzkt.Config, ds *data.Dataset, archs []string, shards [][]int) (fed.History, *fedzkt.Coordinator, error) {
	co, err := fedzkt.New(cfg, ds, archs, shards)
	if err != nil {
		return nil, nil, err
	}
	if _, err := co.Run(context.Background()); err != nil {
		return nil, nil, err
	}
	// Report over the full finalised history, not just the rounds this
	// process ran: a resumed cell replays only the tail (possibly nothing,
	// when the checkpoint already covers every round), and the tables
	// should describe the whole federation either way.
	return co.History(), co, nil
}
