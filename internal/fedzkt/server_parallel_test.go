package fedzkt

import (
	"context"
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
)

// parallelServer builds a small heterogeneous server for fan-out tests.
func parallelServer(t testing.TB, workers, teachersPerIter int) *Server {
	t.Helper()
	cfg := Config{
		Rounds: 2, DistillIters: 2, StudentSteps: 1,
		DistillBatch: 8, ZDim: 8, Seed: 99,
		Workers:         workers,
		TeachersPerIter: teachersPerIter,
	}
	srv, err := NewServer(cfg, model.Shape{C: 1, H: 8, W: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		arch := "mlp"
		if i%2 == 1 {
			arch = "lenet-s"
		}
		if _, err := srv.Register(arch, nil); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

func stateBits(t *testing.T, sd nn.StateDict) map[string][]uint64 {
	t.Helper()
	out := make(map[string][]uint64, len(sd))
	for k, v := range sd {
		bits := make([]uint64, v.Len())
		for i, f := range v.Data() {
			bits[i] = math.Float64bits(f)
		}
		out[k] = bits
	}
	return out
}

// TestParallelDistillWorkersBitIdentical runs full Distill rounds — the
// worker-parallel teacher fan-out, shared column memo, and gang-parallel
// kernels all engaged — across worker counts 1..8 and requires every
// parameter of the global model, generator, and every replica to be
// byte-identical to the single-worker run. This is the server-level form
// of the repo-wide golden-fingerprint guarantee.
func TestParallelDistillWorkersBitIdentical(t *testing.T) {
	type capture struct {
		global, gen map[string][]uint64
		replicas    []map[string][]uint64
	}
	run := func(workers int) capture {
		srv := parallelServer(t, workers, 0)
		for r := 1; r <= 2; r++ {
			if _, err := srv.Distill(context.Background(), r); err != nil {
				t.Fatal(err)
			}
		}
		c := capture{
			global: stateBits(t, nn.CaptureState(srv.Global())),
			gen:    stateBits(t, nn.CaptureState(srv.Generator())),
		}
		for id := 0; id < srv.NumDevices(); id++ {
			sd, err := srv.ReplicaState(id)
			if err != nil {
				t.Fatal(err)
			}
			c.replicas = append(c.replicas, stateBits(t, sd))
		}
		return c
	}

	ref := run(1)
	cmp := func(name string, got, want map[string][]uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: key count %d vs %d", name, len(got), len(want))
		}
		for k, w := range want {
			g := got[k]
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("%s[%s]: elem %d differs", name, k, i)
				}
			}
		}
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got := run(workers)
		cmp("global", got.global, ref.global)
		cmp("generator", got.gen, ref.gen)
		for id := range ref.replicas {
			cmp("replica", got.replicas[id], ref.replicas[id])
		}
	}
}

// TestParallelDistillSampledWorkersBitIdentical is the sampled-teacher
// arm: the fan-out runs over a drawn subset and the draw itself must stay
// on the same RNG stream for every worker count.
func TestParallelDistillSampledWorkersBitIdentical(t *testing.T) {
	run := func(workers int) map[string][]uint64 {
		srv := parallelServer(t, workers, 4)
		for r := 1; r <= 2; r++ {
			if _, err := srv.Distill(context.Background(), r); err != nil {
				t.Fatal(err)
			}
		}
		return stateBits(t, nn.CaptureState(srv.Global()))
	}
	ref := run(1)
	for _, workers := range []int{3, 8} {
		got := run(workers)
		for k, w := range ref {
			g := got[k]
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("workers %d: global[%s] elem %d differs", workers, k, i)
				}
			}
		}
	}
}

// TestParallelDistillAllocsCeiling pins the steady-state allocation cost
// of the parallel distill path. The fan-out itself (goroutines, the
// ensureWorkerArenas growth, the out-slice) must be amortised: after a
// warm-up round, a full Distill round — 2 iterations × (1 generator + 1
// student) steps over 12 teachers plus transfer-back — must stay under a
// fixed allocation budget dominated by the per-iteration lease checkouts,
// not by per-teacher tape or buffer churn.
func TestParallelDistillAllocsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profile in -short mode")
	}
	srv := parallelServer(t, 4, 0)
	round := 0
	distill := func() {
		round++
		if _, err := srv.Distill(context.Background(), round); err != nil {
			t.Fatal(err)
		}
	}
	distill() // warm the arenas, pools, and worker slots
	distill()
	avg := testing.AllocsPerRun(3, distill)
	// Measured ~1.9k allocs/round on a warmed server (lease bookkeeping,
	// fan-out goroutines, optimiser step scratch for 12 replicas × 2
	// iters). ~3× headroom; a per-teacher-forward or per-matmul
	// allocation leak in the parallel path would blow well past this.
	const ceiling = 6000
	if avg > ceiling {
		t.Fatalf("parallel distill allocates %.0f per round, ceiling %d", avg, ceiling)
	}
}
