// This file regenerates every table and figure of the FedZKT paper (one
// Benchmark per artefact, at smoke scale so the suite completes in minutes
// on one core) and holds the three arms that compare a mode no bench/
// workload runs: span recording off (the …NoObs pairs of the server phase
// and the local step, which price the ≤ 2 % observability budget) and the
// full-ensemble server phase (run at GOMAXPROCS=1 for the one-core
// reference). Run with:
//
//	go test -run '^$' -bench=. -benchmem
//
// A test binary pays for checks the product never runs: every
// tensor.Arena.Release fills what it takes back with NaN, and
// internal/fedzkt fills every spare slot buffer with 0xFF before reuse.
// Times measured here therefore compare only within a pair run in one
// binary (the …NoObs arms); absolute times come from bench/, which runs
// the product binary.
//
// Time and bytes of everything else — kernels, local step, codecs,
// checkout, distillation, rounds — are bench/'s metrics (see its README):
// `bash bench/run.sh --workload <name> --trace 1`. Default-scale paper
// results are regenerated, not recorded: cmd/fedzkt -list, then -exp <id>.
package fedzkt_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/experiments"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/obs"
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

// --- Arms with no bench/ counterpart ---

// obsPair runs fn with span recording on and then off under one
// benchmark, so the pair that prices the observability layer is read from
// one run: (obs=on − obs=off) / obs=off, acceptance ≤ 2 %.
func obsPair(b *testing.B, fn func(b *testing.B)) {
	b.Run("obs=on", fn)
	b.Run("obs=off", func(b *testing.B) {
		obs.SetEnabled(false)
		defer obs.SetEnabled(true)
		fn(b)
	})
}

// benchDistillServer builds a 100-replica server over the paper's small
// heterogeneous zoo (five architecture cohorts, 20 devices each) and runs
// full Distill rounds. teachersPerIter = 0 is the paper-exact
// full-ensemble mode; positive values sample that many teachers per
// distillation iteration.
func benchDistillServer(b *testing.B, teachersPerIter int) {
	b.Helper()
	cfg := fedzkt.Config{
		Rounds: 1, DistillIters: 2, StudentSteps: 1,
		DistillBatch: 16, ZDim: 8,
		TeachersPerIter: teachersPerIter,
	}
	srv, err := fedzkt.NewServer(cfg, fedzkt.Shape{C: 1, H: 8, W: 8}, 4)
	if err != nil {
		b.Fatal(err)
	}
	zoo := fedzkt.SmallZoo()
	for i := 0; i < 100; i++ {
		if _, err := srv.Register(zoo[i%len(zoo)], nil); err != nil {
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

// BenchmarkServerDistill100FullEnsemble is the paper-exact server phase,
// which every bench/ workload's fedzkt.distill_ms runs with byte-identical
// results. Both the kernel gang and the teacher fan-out (Workers: 0)
// follow GOMAXPROCS, so the one-core reference run is
//
//	GOMAXPROCS=1 go test -run '^$' -bench 'ServerDistill100FullEnsemble$' .
func BenchmarkServerDistill100FullEnsemble(b *testing.B) { benchDistillServer(b, 0) }

// BenchmarkServerDistill100Teachers8NoObs is the sampled server phase
// with and without span recording: the hot-phase half of the
// observability budget.
func BenchmarkServerDistill100Teachers8NoObs(b *testing.B) {
	obsPair(b, func(b *testing.B) { benchDistillServer(b, 8) })
}

// benchLocalStep runs one device's full LocalUpdate (1 epoch over an
// 80-sample shard, batch 16 → 5 optimiser steps) on a step-scoped arena.
func benchLocalStep(b *testing.B) {
	b.Helper()
	ds := data.SynthMNIST(fedzkt.Sizes{TrainPerClass: 8, TestPerClass: 2}, 7)
	idx := make([]int, ds.NumTrain())
	for i := range idx {
		idx[i] = i
	}
	m := model.MustBuild("lenet-s", model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(3))
	dev := fed.NewDevice(0, "lenet-s", m, data.NewSubset(ds, idx))
	dev.Scratch = ag.NewArena()
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

// BenchmarkLocalStepArenaNoObs is the arena local step with and without
// span recording: the local-phase half of the observability budget.
func BenchmarkLocalStepArenaNoObs(b *testing.B) {
	obsPair(b, benchLocalStep)
}
