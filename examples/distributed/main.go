// Distributed: the same federation as quickstart, but over real TCP
// sockets — the server and three devices exchange length-prefixed binary
// frames exactly as the cmd/fedzkt-server and cmd/fedzkt-device binaries
// do across machines. Only architecture announcements and trained model
// parameters cross the wire; the synthetic data and every initial model
// are reconstructed from the seeds in the assignment.
//
// The run uses the fault-tolerant session options: rounds close on a
// quorum of uploads instead of waiting for every device, an upload
// arriving a round late is still absorbed (bounded staleness), and the
// devices reconnect and resume their sessions if a connection drops.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/transport"
)

func main() {
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:        "127.0.0.1:0", // ephemeral port
		NumDevices:  3,
		DatasetName: "synthmnist",
		Sizes:       fedzkt.Sizes{TrainPerClass: 20, TestPerClass: 8},
		Fed: fedzkt.Config{
			Rounds: 3, LocalEpochs: 2, DistillIters: 10, StudentSteps: 2,
			DistillBatch: 16, BatchSize: 16,
			DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9, Seed: 99,
		},
		IOTimeout: time.Minute,
		// Quorum rounds: distill once 2 of the 3 active devices uploaded
		// and the collection deadline passed; a device at most one round
		// behind still gets its work absorbed.
		MinUploads:     2,
		UploadDeadline: 30 * time.Second,
		StalenessBound: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("server listening on", srv.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	for i, arch := range []string{"cnn", "mlp", "lenet-s"} {
		wg.Add(1)
		go func(i int, arch string) {
			defer wg.Done()
			m, ds, err := transport.RunDevice(ctx, transport.DeviceConfig{
				Addr:      srv.Addr(),
				Arch:      arch,
				Reconnect: true, // resume the session if the connection drops
				Progress: func(round int, loss float64) {
					fmt.Printf("  device %d (%s) round %d: loss %.3f\n", i+1, arch, round, loss)
				},
			})
			if err != nil {
				log.Printf("device %d: %v", i+1, err)
				return
			}
			fmt.Printf("device %d (%s) final accuracy: %.4f\n", i+1, arch, fed.Evaluate(m, ds, 64))
		}(i, arch)
	}

	hist, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	report := fed.RoundReport{Columns: fed.DistributedColumns()}
	report.Render(os.Stdout, hist)
	for _, st := range srv.SessionStats() {
		fmt.Printf("device %d (%s): %d resumes | wire %0.1f KiB up, %0.1f KiB down\n",
			st.ID, st.Arch, st.Resumes, float64(st.BytesUp)/1024, float64(st.BytesDown)/1024)
	}
}
