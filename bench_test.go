// This file is the benchmark harness that regenerates every table and
// figure of the FedZKT paper (one Benchmark per artefact, at smoke scale
// so the full suite completes in minutes on one core) plus
// micro-benchmarks of the numeric substrate. Run with:
//
//	go test -bench=. -benchmem
//
// Default-scale results are regenerated, not recorded: run the cmd/fedzkt
// CLI (-list, then -exp <id>). The round ledger every performance claim
// is judged in lives in bench/ (see its README).
package fedzkt_test

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/experiments"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// smoke returns the standard smoke-scale parameters with a per-iteration
// seed so repeated bench iterations are independent runs.
func smoke(i int) experiments.Params {
	p := experiments.ParamsFor(experiments.ScaleSmoke)
	p.Fed.Seed = uint64(i + 1)
	return p
}

// lite further trims the smoke scale for the sweep experiments whose cell
// counts multiply (Figure 4 runs 32 federations).
func lite(i int) experiments.Params {
	p := smoke(i)
	p.TrainPerClass = 8
	p.TestPerClass = 4
	p.Devices = 2
	p.Rounds = 1
	p.RoundsCIFAR = 1
	p.DistillIters = 4
	return p
}

// parsePct converts "78.02%" to 78.02 for ReportMetric.
func parsePct(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0
	}
	return v
}

func reportLastColumn(b *testing.B, t *experiments.Table, metric string) {
	b.Helper()
	if len(t.Rows) == 0 {
		return
	}
	last := t.Rows[len(t.Rows)-1]
	b.ReportMetric(parsePct(last[len(last)-1]), metric)
}

func BenchmarkTable1IIDAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(smoke(i))
		if err != nil {
			b.Fatal(err)
		}
		reportLastColumn(b, res.Tables[0], "fedzkt-acc-%")
	}
}

func BenchmarkFig2GradientNorms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(smoke(i))
		if err != nil {
			b.Fatal(err)
		}
		// Report the final-round SL gradient norm (the paper's stable
		// middle curve).
		s := res.Figures[0].Series[0]
		b.ReportMetric(s.Y[len(s.Y)-1], "sl-gradnorm")
	}
}

func BenchmarkFig3LearningCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(smoke(i))
		if err != nil {
			b.Fatal(err)
		}
		f := res.Figures[0]
		b.ReportMetric(100*f.Series[0].Y[len(f.Series[0].Y)-1], "fedzkt-acc-%")
	}
}

func BenchmarkFig4NonIID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(lite(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2LossAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(lite(i))
		if err != nil {
			b.Fatal(err)
		}
		reportLastColumn(b, res.Tables[0], "sl-acc-%")
	}
}

func BenchmarkFig5Heterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(lite(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Bounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(lite(i))
		if err != nil {
			b.Fatal(err)
		}
		reportLastColumn(b, res.Tables[0], "lower-acc-%")
	}
}

func BenchmarkFig6Stragglers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(lite(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4L2Reg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(lite(i))
		if err != nil {
			b.Fatal(err)
		}
		reportLastColumn(b, res.Tables[0], "l2-acc-%")
	}
}

func BenchmarkFig7DeviceCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(lite(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommBytes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CommBytes(lite(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGeneratorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GeneratorSweep(lite(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Server-phase scaling benchmarks ---

// benchDistillServer builds a 100-replica server over the paper's small
// heterogeneous zoo (five architecture cohorts, 20 devices each) and runs
// full Distill rounds. teachersPerIter = 0 is the paper-exact
// full-ensemble mode; positive values sample that many teachers per
// distillation iteration and transfer back into a same-sized rotating
// replica window — the cohort subsystem's O(devices) → O(T) server-phase
// reduction under measurement. sequential pins the whole server phase to
// one core — serial teacher fan-out and a width-1 kernel executor — so
// the Serial/parallel pair measures the kernel-tier-2 speedup directly.
func benchDistillServer(b *testing.B, teachersPerIter int, sequential bool) {
	b.Helper()
	if sequential {
		tensor.SetParallel(sched.NewGang(1))
		defer tensor.SetParallel(sched.NewGang(runtime.GOMAXPROCS(0)))
	}
	cfg := fedzkt.Config{
		Rounds: 1, DistillIters: 2, StudentSteps: 1,
		DistillBatch: 16, ZDim: 8,
		TeachersPerIter: teachersPerIter,
		Sequential:      sequential,
	}
	srv, err := fedzkt.NewServer(cfg, fedzkt.Shape{C: 1, H: 8, W: 8}, 4)
	if err != nil {
		b.Fatal(err)
	}
	zoo := fedzkt.SmallZoo()
	for i := 0; i < 100; i++ {
		if _, err := srv.RegisterSized(zoo[i%len(zoo)], nil, 1+i%7); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Distill(context.Background(), i+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerDistill100FullEnsemble is the pre-cohort regime: every
// distillation iteration forwards all 100 replica teachers and transfers
// back into all 100 replicas, with the worker-parallel fan-out and
// gang-parallel kernels engaged (byte-identical to Serial).
func BenchmarkServerDistill100FullEnsemble(b *testing.B) { benchDistillServer(b, 0, false) }

// BenchmarkServerDistill100FullEnsembleSerial is the one-core reference
// arm: sequential teacher forwards and a width-1 kernel executor. The
// kernel-tier-2 acceptance bar is FullEnsemble ≥ 2× over this on a
// ≥ 4-core host.
func BenchmarkServerDistill100FullEnsembleSerial(b *testing.B) { benchDistillServer(b, 0, true) }

// BenchmarkServerDistill100Teachers8 samples 8 teachers per iteration
// (and an 8-wide rotating transfer-back window). The acceptance bar for
// the cohort refactor is ≥ 5× over the full ensemble at 100 replicas.
func BenchmarkServerDistill100Teachers8(b *testing.B) { benchDistillServer(b, 8, false) }

// BenchmarkServerDistill100Teachers8NoObs is the sampled arm with the
// observability layer's span recording switched off. The pair
// Teachers8 / Teachers8NoObs bounds the instrumentation overhead on the
// hot server phase; the acceptance bar is ≤ 2% between them.
func BenchmarkServerDistill100Teachers8NoObs(b *testing.B) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	benchDistillServer(b, 8, false)
}

// benchPipelinedRound runs a full 100-device federation end to end at the
// given pipeline depth: a full-ensemble server phase (the non-trivial
// server work the pipeline is meant to hide) against 16 sampled devices
// per round. Depth 0 is the synchronous barrier; depth 2 overlaps the
// server's distillation with the next rounds' on-device training. The
// wall-time gap between the two is the pipeline's win and needs a spare
// core to materialise — on a single-core host the two arms time within
// noise of each other, which is the engine's no-overhead bound.
func benchPipelinedRound(b *testing.B, depth int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runPipelinedFederation(b, depth, uint64(i+1))
	}
}

// runPipelinedFederation builds and runs one 100-device federation.
func runPipelinedFederation(b *testing.B, depth int, seed uint64) {
	b.Helper()
	ds := data.SynthMNIST(fedzkt.Sizes{TrainPerClass: 21, TestPerClass: 10}, seed)
	shards := fedzkt.PartitionIID(ds.NumTrain(), 100, seed+1)
	co, err := fedzkt.New(fedzkt.Config{
		Rounds: 3, LocalEpochs: 1, DistillIters: 3, StudentSteps: 1,
		DistillBatch: 8, BatchSize: 8, ZDim: 16,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9,
		Seed: seed, SampleK: 16, Workers: 0,
		TeachersPerIter: 0, // full ensemble: the heavy server phase under test
		PipelineDepth:   depth,
		EvalEvery:       3,
	}, ds, []string{"mlp", "lenet-s"}, shards)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := co.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelinedRoundDepth0 is the synchronous-barrier baseline at
// 100 devices with a full-ensemble server phase.
func BenchmarkPipelinedRoundDepth0(b *testing.B) { benchPipelinedRound(b, 0) }

// BenchmarkPipelinedRoundDepth2 is the same federation with two rounds in
// flight on the staged pipelined engine.
func BenchmarkPipelinedRoundDepth2(b *testing.B) { benchPipelinedRound(b, 2) }

// --- State-codec benchmarks ---

// benchCohortMemory registers 100 heterogeneous devices under the given
// state codec and reports the resident replica-slot bytes per device —
// the server-memory quantity the quantised codecs shrink (the acceptance
// bar for int8 is ≥4× below float64; in practice it lands near 8×).
func benchCohortMemory(b *testing.B, codecName string) {
	b.Helper()
	b.ReportAllocs()
	var perDevice float64
	for i := 0; i < b.N; i++ {
		srv, err := fedzkt.NewServer(fedzkt.Config{
			TeachersPerIter: 8, StateCodec: codecName,
		}, fedzkt.Shape{C: 1, H: 8, W: 8}, 4)
		if err != nil {
			b.Fatal(err)
		}
		zoo := fedzkt.SmallZoo()
		for d := 0; d < 100; d++ {
			if _, err := srv.RegisterSized(zoo[d%len(zoo)], nil, 1+d%7); err != nil {
				b.Fatal(err)
			}
		}
		perDevice = float64(srv.ResidentStateBytes()) / 100
	}
	b.ReportMetric(perDevice, "stateB/device")
}

func BenchmarkCohortMemoryFloat64(b *testing.B) { benchCohortMemory(b, "float64") }
func BenchmarkCohortMemoryFloat16(b *testing.B) { benchCohortMemory(b, "float16") }
func BenchmarkCohortMemoryInt8(b *testing.B)    { benchCohortMemory(b, "int8") }

// BenchmarkCodecEncodeDecode measures one encode + decode round trip of a
// real model state under each codec, reporting the encoded bytes per
// element alongside the throughput.
func BenchmarkCodecEncodeDecode(b *testing.B) {
	m := model.MustBuild("cnn", model.Shape{C: 1, H: 8, W: 8}, 4, tensor.NewRand(17))
	sd := nn.CaptureState(m)
	numel := sd.Numel()
	for _, name := range codec.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			c, err := codec.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(numel) * 8)
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, err = c.Append(buf[:0], sd)
				if err != nil {
					b.Fatal(err)
				}
				if err := codec.DecodeInto(buf, sd); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf))/float64(numel), "encB/elem")
		})
	}
}

// --- Device local-step benchmarks ---

// benchLocalStep runs one device's full LocalUpdate (1 epoch over an
// 80-sample shard, batch 16 → 5 optimiser steps) with or without a
// step-scoped arena. The arena arm is the hot path every scheduler worker
// runs; its allocs/op is the allocation-free-compute acceptance metric
// (≥10× below the no-arena arm) and is pinned by TestLocalStepAllocs.
func benchLocalStep(b *testing.B, arena bool) {
	b.Helper()
	ds := data.SynthMNIST(fedzkt.Sizes{TrainPerClass: 8, TestPerClass: 2}, 7)
	idx := make([]int, ds.NumTrain())
	for i := range idx {
		idx[i] = i
	}
	m := model.MustBuild("lenet-s", model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(3))
	dev := fed.NewDevice(0, "lenet-s", m, data.NewSubset(ds, idx))
	if arena {
		dev.Scratch = ag.NewArena()
	}
	cfg := fed.LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.01}
	rng := tensor.NewRand(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.LocalUpdate(cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalStepArena(b *testing.B)   { benchLocalStep(b, true) }
func BenchmarkLocalStepNoArena(b *testing.B) { benchLocalStep(b, false) }

// BenchmarkLocalStepArenaNoObs is the arena arm with span recording
// switched off — the local-phase column of the instrumented-vs-
// uninstrumented overhead table.
func BenchmarkLocalStepArenaNoObs(b *testing.B) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	benchLocalStep(b, true)
}

// --- Substrate micro-benchmarks ---

func BenchmarkMatMul128(b *testing.B) {
	rng := tensor.NewRand(1)
	x := tensor.New(128, 128)
	y := tensor.New(128, 128)
	tensor.FillNormal(x, 0, 1, rng)
	tensor.FillNormal(y, 0, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMul(x, y)
	}
}

func BenchmarkConv2dForwardBackward(b *testing.B) {
	rng := tensor.NewRand(2)
	xT := tensor.New(16, 8, 16, 16)
	wT := tensor.New(16, 8, 3, 3)
	tensor.FillNormal(xT, 0, 1, rng)
	tensor.FillNormal(wT, 0, 0.1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := ag.Param(xT)
		w := ag.Param(wT)
		y := ag.Conv2d(x, w, nil, 1, 1)
		ag.Backward(ag.MeanAll(ag.Mul(y, y)))
	}
}

func BenchmarkGeneratorForward(b *testing.B) {
	g := model.NewGenerator(32, model.Shape{C: 3, H: 16, W: 16}, tensor.NewRand(3))
	rng := tensor.NewRand(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Generate(32, rng)
	}
}

func BenchmarkGlobalModelForward(b *testing.B) {
	m := model.MustBuild("global", model.Shape{C: 3, H: 16, W: 16}, 10, tensor.NewRand(5))
	m.SetTraining(false)
	xT := tensor.New(32, 3, 16, 16)
	tensor.FillNormal(xT, 0, 1, tensor.NewRand(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(ag.Const(xT))
	}
}
