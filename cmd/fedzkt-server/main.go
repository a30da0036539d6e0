// Command fedzkt-server runs the FedZKT server over TCP: it waits for the
// configured number of devices to register, executes the federated rounds
// (local training on devices, zero-shot distillation here), and prints
// per-round metrics.
//
// Usage:
//
//	fedzkt-server -addr 127.0.0.1:7700 -devices 3 -dataset synthmnist -rounds 5
//
// Start the matching devices with cmd/fedzkt-device.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedzkt-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedzkt-server", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7700", "TCP listen address")
		devices   = fs.Int("devices", 2, "number of devices to wait for")
		dataset   = fs.String("dataset", "synthmnist", "synthetic dataset name")
		perClass  = fs.Int("per-class", 30, "training samples per class")
		part      = fs.String("partition", "iid", "data partition regime: iid, quantity:<c>, dirichlet:<beta>")
		minUp     = fs.Int("min-uploads", 0, "round quorum: min uploads before distilling without stragglers (0 = all active devices)")
		upDeadl   = fs.Duration("upload-deadline", 0, "per-round upload collection deadline (0 = IO timeout)")
		staleness = fs.Int("staleness-bound", 0, "rounds a late upload may lag and still be absorbed")
	)
	// The shared flags a session fleet cannot honour yet (-pipeline-depth,
	// -checkpoint-dir, -resume, -fail-rate) are refused
	// by transport.NewServer, by field name.
	fed := fedzkt.Config{
		Rounds:         5,
		LocalEpochs:    2,
		DistillIters:   16,
		StudentSteps:   2,
		DistillBatch:   16,
		BatchSize:      16,
		DeviceLR:       0.05,
		ServerLR:       0.05,
		GenLR:          3e-4,
		Momentum:       0.9,
		ActiveFraction: 1,
		Seed:           1,
	}
	fed.BindFlags(fs)
	fed.BindSizingFlags(fs)
	var proc fedzkt.ProcessFlags
	proc.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := proc.Start()
	if err != nil {
		return err
	}
	defer stop()

	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:           *addr,
		NumDevices:     *devices,
		DatasetName:    *dataset,
		Sizes:          data.Sizes{TrainPerClass: *perClass, TestPerClass: max(*perClass/3, 2)},
		Partition:      *part,
		Fed:            fed,
		MinUploads:     *minUp,
		UploadDeadline: *upDeadl,
		StalenessBound: *staleness,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("listening on %s, waiting for %d devices...\n", srv.Addr(), *devices)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hist, err := srv.Run(ctx)
	for _, m := range hist {
		fmt.Printf("round %2d: global acc %.4f | absorbed %d late %d dropped %d | up %6.1f KiB | down %6.1f KiB | ∥∇x∥ %.3g | %s\n",
			m.Round, m.GlobalAcc,
			m.Absorbed, m.LateAbsorbed, m.DroppedUploads,
			float64(m.BytesUp)/1024, float64(m.BytesDown)/1024,
			m.InputGradNorm, m.Elapsed.Round(1e6))
	}
	for _, st := range srv.SessionStats() {
		if st.Resumes > 0 || st.Duplicates > 0 {
			fmt.Printf("device %d (%s): %d resumes, %d duplicate uploads discarded\n",
				st.ID, st.Arch, st.Resumes, st.Duplicates)
		}
	}
	if built, reused := srv.PayloadBufferStats(); built+reused > 0 {
		fmt.Printf("payload buffers: %d built, %d uploads/downloads served by reuse\n", built, reused)
	}
	return err
}
