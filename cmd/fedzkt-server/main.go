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
	"github.com/fedzkt/fedzkt/internal/obs"
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
		addr          = fs.String("addr", "127.0.0.1:7700", "TCP listen address")
		devices       = fs.Int("devices", 2, "number of devices to wait for")
		dataset       = fs.String("dataset", "synthmnist", "synthetic dataset name")
		rounds        = fs.Int("rounds", 5, "communication rounds")
		epochs        = fs.Int("epochs", 2, "local epochs per round")
		distill       = fs.Int("distill", 16, "server distillation iterations per phase")
		batch         = fs.Int("batch", 16, "batch size (device and distillation)")
		fraction      = fs.Float64("p", 1.0, "active device fraction per round (stragglers)")
		seed          = fs.Uint64("seed", 1, "random seed")
		perClass      = fs.Int("per-class", 30, "training samples per class")
		part          = fs.String("partition", "iid", "data partition regime: iid, quantity:<c>, dirichlet:<beta>")
		minUp         = fs.Int("min-uploads", 0, "round quorum: min uploads before distilling without stragglers (0 = all active devices)")
		upDeadl       = fs.Duration("upload-deadline", 0, "per-round upload collection deadline (0 = IO timeout)")
		staleness     = fs.Int("staleness-bound", 0, "rounds a late upload may lag and still be absorbed")
		listenMetrics = fs.String("listen-metrics", "", "serve the live introspection endpoint on this address (/metrics, /debug/vars, /debug/trace, /debug/pprof; \":0\" picks a port)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listenMetrics != "" {
		maddr, err := obs.ListenAndServe(*listenMetrics)
		if err != nil {
			return fmt.Errorf("listen-metrics: %w", err)
		}
		fmt.Printf("metrics listening on http://%s/metrics\n", maddr)
	}

	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:        *addr,
		NumDevices:  *devices,
		DatasetName: *dataset,
		Sizes:       data.Sizes{TrainPerClass: *perClass, TestPerClass: maxInt(*perClass/3, 2)},
		Partition:   *part,
		Fed: fedzkt.Config{
			Rounds:         *rounds,
			LocalEpochs:    *epochs,
			DistillIters:   *distill,
			StudentSteps:   2,
			DistillBatch:   *batch,
			BatchSize:      *batch,
			DeviceLR:       0.05,
			ServerLR:       0.05,
			GenLR:          3e-4,
			Momentum:       0.9,
			ActiveFraction: *fraction,
			Seed:           *seed,
		},
		MinUploads:     *minUp,
		UploadDeadline: *upDeadl,
		StalenessBound: *staleness,
	})
	if err != nil {
		return err
	}
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
