// Quickstart: a five-device FedZKT federation on the synthetic MNIST
// stand-in, using the public facade only. Devices pick five different
// architectures; the server distils their knowledge into a global model
// without ever seeing data, then ships each device its own updated
// parameters.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/data"
)

func main() {
	// 1. Data: a deterministic synthetic 10-class image dataset (the
	// offline stand-in for MNIST; see package internal/data).
	ds := data.SynthMNIST(fedzkt.Sizes{TrainPerClass: 30, TestPerClass: 10}, 42)

	// 2. Partition: IID across 5 devices.
	shards := fedzkt.PartitionIID(ds.NumTrain(), 5, 42)

	// 3. Federation: every device independently picks its architecture —
	// the server adapts to them, not the other way around.
	archs := fedzkt.SmallZoo() // cnn, mlp, lenet-s, lenet-m, lenet-l
	co, err := fedzkt.New(fedzkt.Config{
		Rounds:       5,
		LocalEpochs:  2,
		DistillIters: 16,
		StudentSteps: 2,
		DistillBatch: 24,
		BatchSize:    16,
		DeviceLR:     0.05,
		ServerLR:     0.05,
		GenLR:        3e-4,
		Momentum:     0.9,
		Seed:         42,
	}, ds, archs, shards)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run and watch both sides learn.
	hist, err := co.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("round | global acc | mean device acc | upload KiB")
	for _, m := range hist {
		fmt.Printf("%5d | %10.4f | %15.4f | %10.1f\n",
			m.Round, m.GlobalAcc, m.MeanDeviceAcc, float64(m.BytesUp)/1024)
	}
	fmt.Printf("\nfinal global model accuracy: %.2f%% (chance: 10%%)\n", 100*hist.FinalGlobalAcc())
	devices := co.Devices()
	ids := make([]int, len(devices))
	for i := range ids {
		ids[i] = i
	}
	accs, err := co.EvaluateDevices(ids)
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range devices {
		fmt.Printf("device %d (%s): %.2f%%\n", i+1, d.Arch, 100*accs[i])
	}
}
