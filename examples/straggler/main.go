// Straggler: resource-constrained federations rarely have every device
// online. This example repeats one federation at participation fractions
// p ∈ {0.4, 1.0} (Figure 6's setting): each round only ⌈p·K⌉ randomly
// chosen devices train and receive downloads; the rest keep stale models,
// yet still contribute through their server-side replicas.
//
//	go run ./examples/straggler
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/obs"
)

func main() {
	ds := data.SynthMNIST(fedzkt.Sizes{TrainPerClass: 30, TestPerClass: 10}, 23)
	const k = 5
	shards := fedzkt.PartitionIID(ds.NumTrain(), k, 23)

	histories := map[float64]fedzkt.History{}
	for _, p := range []float64{0.4, 1.0} {
		fmt.Printf("running with participation p=%.1f...\n", p)
		co, err := fedzkt.New(fedzkt.Config{
			Rounds: 5, LocalEpochs: 2, DistillIters: 10, StudentSteps: 2,
			DistillBatch: 16, BatchSize: 16,
			DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9,
			ActiveFraction: p, Seed: 23,
		}, ds, fedzkt.SmallZoo(), shards)
		if err != nil {
			log.Fatal(err)
		}
		hist, err := co.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		histories[p] = hist
	}

	// A comparative report: the p=1.0 column is a closure over the second
	// history, indexed by row position.
	h4, h10 := histories[0.4], histories[1.0]
	report := fed.RoundReport{Columns: []fed.Column{
		fed.Col("round", func(_ int, m fed.RoundMetrics) string { return obs.FmtInt(m.Round) }),
		fed.Col("p=0.4 active", func(i int, _ fed.RoundMetrics) string { return fmt.Sprintf("%v", h4[i].Active) }),
		fed.Col("p=0.4 acc", func(_ int, m fed.RoundMetrics) string { return obs.FmtAcc(m.GlobalAcc) }),
		fed.Col("p=1.0 acc", func(i int, _ fed.RoundMetrics) string { return obs.FmtAcc(h10[i].GlobalAcc) }),
	}}
	fmt.Println()
	report.Render(os.Stdout, h4)
	fmt.Println("\nwith most devices participating, stragglers barely dent the curve —")
	fmt.Println("the server's replicas keep every architecture in the ensemble.")
}
