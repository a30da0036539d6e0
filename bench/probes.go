package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	ifedzkt "github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/optim"
	"github.com/fedzkt/fedzkt/internal/tensor"
	"github.com/fedzkt/fedzkt/internal/transport"
)

// A probe is a fixed-count micro-drive of one public function at the
// workload's shapes, run after the traced pass. Each reports the median
// of probeReps batches, so one disturbed batch does not move it.
const probeReps = 7

// perOp runs op n times per batch and returns the median batch's
// nanoseconds per operation.
func (s *stepper) perOp(n int, op func()) float64 {
	op() // warm caches and lazy set-up
	batches := make([]float64, s.reps())
	for b := range batches {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		batches[b] = float64(time.Since(start)) / float64(n)
	}
	return median(batches)
}

func (s *stepper) reps() int {
	if s.w.quick {
		return 1
	}
	return probeReps
}

// probes fills the probe metrics. Every probe runs on every workload —
// they cost about a second together — except the two that need a
// particular federation: cold replica payloads need a spill store, and a
// checkpoint walks every registered device, rebuilding each never-written
// slot from its seed, which only the small federations can afford.
func (s *stepper) probes(res *traceResult, scratch string) error {
	L := res.Layer
	rng := tensor.NewRand(s.cfg.Seed + 4242)
	srvCfg := s.srv.Config()

	// tensor: the 128³ matmul every BENCH_*.json tracked.
	x, y := tensor.New(128, 128), tensor.New(128, 128)
	tensor.FillNormal(x, 0, 1, rng)
	tensor.FillNormal(y, 0, 1, rng)
	L["tensor.matmul128_us"] = s.perOp(20, func() { _ = tensor.MatMul(x, y) }) / 1e3

	// ag: 3×3 convolution forward + backward on the tape.
	cx, cw := tensor.New(16, 8, 16, 16), tensor.New(16, 8, 3, 3)
	tensor.FillNormal(cx, 0, 1, rng)
	tensor.FillNormal(cw, 0, 0.1, rng)
	L["ag.conv_fwd_bwd_us"] = s.perOp(3, func() {
		out := ag.Conv2d(ag.Param(cx), ag.Param(cw), nil, 1, 1)
		ag.Backward(ag.MeanAll(ag.Mul(out, out)))
	}) / 1e3

	// fed + optim: one LocalUpdate batch on lenet-m, and the optimiser
	// step alone on the same parameters (gradients left by the update).
	lenet, err := model.Build("lenet-m", s.in, s.ds.Classes, rng)
	if err != nil {
		return err
	}
	idx := make([]int, srvCfg.BatchSize)
	for i := range idx {
		idx[i] = i % s.ds.NumTrain()
	}
	dev := fed.NewDevice(0, "lenet-m", lenet, data.NewSubset(s.ds, idx))
	dev.Scratch = ag.NewArena()
	var stepErr error
	L["fed.local_step_ms"] = s.perOp(5, func() {
		if _, err := dev.LocalUpdate(s.local, rng); err != nil {
			stepErr = err
		}
	}) / 1e6
	if stepErr != nil {
		return stepErr
	}
	sgd := optim.NewSGD(lenet.Params(), s.local.LR, s.local.Momentum, 0)
	L["optim.sgd_step_us"] = s.perOp(50, sgd.Step) / 1e3

	// model: generator and global forward at the distillation batch, on
	// the heap so the allocation volume of a forward is visible.
	gen := model.NewGenerator(srvCfg.ZDim, s.in, rng)
	z := gen.SampleZ(srvCfg.DistillBatch, rng)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const genOps = 5
	genNs := s.perOp(genOps, func() { _ = gen.Forward(ag.Const(z)) })
	runtime.ReadMemStats(&after)
	L["model.generator_fwd_ms"] = genNs / 1e6
	L["model.generator_fwd_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(genOps*s.reps()+1)
	global := s.srv.Global()
	gx := tensor.New(srvCfg.DistillBatch, s.in.C, s.in.H, s.in.W)
	tensor.FillNormal(gx, 0, 1, rng)
	global.SetTraining(false)
	L["model.global_fwd_ms"] = s.perOp(5, func() { _ = global.Forward(ag.Const(gx)) }) / 1e6
	global.SetTraining(true)

	// codec: int8 encode/decode of an mlp state; MB are dense float64 MB.
	mlp, err := model.Build("mlp", s.in, s.ds.Classes, rng)
	if err != nil {
		return err
	}
	sd := nn.CaptureState(mlp)
	int8c, err := codec.Get(codec.Int8)
	if err != nil {
		return err
	}
	container, err := codec.Encode(int8c, sd)
	if err != nil {
		return err
	}
	denseMB := float64(sd.Numel()) * 8 / 1e6
	var codecErr error
	encNs := s.perOp(20, func() {
		if _, err := codec.Encode(int8c, sd); err != nil {
			codecErr = err
		}
	})
	decNs := s.perOp(20, func() {
		if err := codec.DecodeInto(container, sd); err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return codecErr
	}
	L["codec.encode_mb_per_s"] = denseMB / (encNs / 1e9)
	L["codec.decode_mb_per_s"] = denseMB / (decNs / 1e9)

	// codec: spill record write/read, record = that int8 container.
	spill, err := codec.CreateSpill(filepath.Join(scratch, "probe.spill"), len(container))
	if err != nil {
		return err
	}
	var spillErr error
	slot := 0
	L["codec.spill_write_us"] = s.perOp(64, func() {
		if err := spill.Write(slot%256, container); err != nil {
			spillErr = err
		}
		slot++
	}) / 1e3
	buf := make([]byte, 0, len(container))
	slot = 0
	L["codec.spill_read_us"] = s.perOp(64, func() {
		if _, err := spill.Read(slot%64, buf); err != nil {
			spillErr = err
		}
		slot++
	}) / 1e3
	if err := spill.Close(); err != nil {
		return err
	}
	if spillErr != nil {
		return spillErr
	}

	// obs: one Begin/End pair on a tracer of the benchmark's own.
	tr := obs.NewTracer(1024)
	L["obs.span_ns"] = s.perOp(2000, func() { tr.Begin("probe", "span").End() })

	if err := s.probeFrames(L, res.MaxUpload); err != nil {
		return err
	}
	if srvCfg.ReplicaStore == fedzkt.ReplicaStoreSpill {
		if err := s.probeReplicaPayload(L); err != nil {
			return err
		}
	}
	if s.w.devices <= 64 {
		return s.probeCheckpoint(L, scratch)
	}
	return nil
}

// probeFrames echoes one upload-sized frame over a loopback pair:
// WriteMessage → ReadMessage → WriteMessage → ReadMessage.
func (s *stepper) probeFrames(L map[string]float64, payloadBytes int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer conn.Close()
		for {
			m, err := transport.ReadMessage(conn)
			if err != nil {
				echoErr <- nil // the dialling side closed: probe over
				return
			}
			if err := transport.WriteMessage(conn, m); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	msg := &transport.Message{Type: transport.MsgUpload, Round: 1, Payload: make([]byte, payloadBytes)}
	var rtErr error
	ns := s.perOp(10, func() {
		if err := transport.WriteMessage(conn, msg); err != nil {
			rtErr = err
			return
		}
		if _, err := transport.ReadMessage(conn); err != nil {
			rtErr = err
		}
	})
	_ = conn.Close()
	if err := <-echoErr; err != nil {
		return err
	}
	if rtErr != nil {
		return rtErr
	}
	L["transport.frame_rtt_us"] = ns / 1e3
	L["transport.frame_mb_per_s"] = 2 * float64(payloadBytes) / 1e6 / (ns / 1e9)
	return nil
}

// probeReplicaPayload times Server.ReplicaPayload on resident and on
// evicted ids — the outside view of a cold checkout. Which it was is
// read off the store's own miss counter around each call.
func (s *stepper) probeReplicaPayload(L map[string]float64) error {
	var hot, cold []float64
	// Replaying the sampler reproduces the ids the pass touched. The last
	// round's are resident and go first; the first rounds' have been
	// evicted since, and reading them evicts in turn.
	rng := tensor.NewRand(s.cfg.Seed + 99)
	var touched []int
	for r := 0; r < s.cfg.Rounds; r++ {
		touched = append(touched, s.sampler.Sample(s.w.devices, rng)...)
	}
	k := min(len(touched)/2, 48)
	ids := append(append([]int(nil), touched[len(touched)-k:]...), touched[:k]...)
	for _, id := range ids {
		missesBefore := s.srv.ReplicaStoreStats().Misses
		start := time.Now()
		if _, _, err := s.srv.ReplicaPayload(id); err != nil {
			return err
		}
		d := ms(time.Since(start))
		if s.srv.ReplicaStoreStats().Misses > missesBefore {
			cold = append(cold, d)
		} else {
			hot = append(hot, d)
		}
	}
	L["fedzkt.replica_payload_hot_ms"] = median(hot)
	L["fedzkt.replica_payload_cold_ms"] = median(cold)
	return nil
}

// probeCheckpoint serialises the server and writes it durably (temp +
// fsync + rename) into the scratch directory.
func (s *stepper) probeCheckpoint(L map[string]float64, scratch string) error {
	var size int
	var ckErr error
	path := filepath.Join(scratch, "probe.ckpt")
	ns := s.perOp(1, func() {
		b, err := s.srv.CheckpointBytes()
		if err == nil {
			size = len(b)
			err = ifedzkt.WriteCheckpointFile(path, b)
		}
		if err != nil {
			ckErr = err
		}
	})
	if ckErr != nil {
		return fmt.Errorf("checkpoint probe: %w", ckErr)
	}
	L["fedzkt.checkpoint_save_ms"] = ns / 1e6
	L["fedzkt.checkpoint_mb"] = float64(size) / 1e6
	return nil
}
