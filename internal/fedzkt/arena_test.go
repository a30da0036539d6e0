package fedzkt

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// TestArenaZooRotationRetention: one arena serving the five SmallZoo
// architectures in turn — what a device rig's step arena and a server
// worker arena do — ends up holding about its largest step, and stops
// growing after the first lap. A step's size is its high-water mark of
// live bytes: above what is live when it ends (the backward's scratch has
// gone back by then), below everything it touched (so has every conv
// lowering its dW has read). A free list per buffer length held the
// high-water mark of every length of every architecture at once, ≈ 4.3 ×
// the largest step here.
func TestArenaZooRotationRetention(t *testing.T) {
	in := model.Shape{C: 1, H: 16, W: 16}
	const batch, classes = 16, 10
	var zoo []nn.Module
	for i, arch := range model.SmallZoo() {
		zoo = append(zoo, model.MustBuild(arch, in, classes, tensor.NewRand(uint64(90+i))))
	}
	ar := ag.NewArena()
	rng := tensor.NewRand(91)
	var maxEnd int64
	lap := func() {
		for _, m := range zoo {
			x := ar.T.NewRaw(batch, in.C, in.H, in.W)
			tensor.FillNormal(x, 0, 1, rng)
			y := ar.T.Ints(batch)
			for i := range y {
				y[i] = i % classes
			}
			ag.Backward(ag.CrossEntropy(m.Forward(ag.ConstIn(ar, x)), y))
			for _, p := range m.Params() {
				p.ZeroGrad()
			}
			maxEnd = max(maxEnd, ar.T.StepBytes())
			ar.Reset()
		}
	}
	lap()
	held, peak := ar.T.HeldBytes(), ar.T.StepPeakBytes()
	lap()
	lap()
	if got := ar.T.HeldBytes(); got != held {
		t.Errorf("arena grew after its first lap over the zoo: %d -> %d bytes", held, got)
	}
	if got := ar.T.StepPeakBytes(); got != peak {
		t.Errorf("StepPeakBytes moved from %d to %d over identical laps", peak, got)
	}
	if peak <= maxEnd {
		t.Errorf("StepPeakBytes = %d, yet a step ended with %d bytes live: backward scratch is not being released", peak, maxEnd)
	}
	t.Logf("held %d bytes for a largest step of %d (%.2f×), %d live at its end", held, peak, float64(held)/float64(peak), maxEnd)
	if float64(held) > 1.5*float64(peak) {
		t.Errorf("arena holds %d bytes, more than 1.5 × its largest step (%d)", held, peak)
	}
}

// zooFederation is the paper's regime in miniature: ten devices over the
// five SmallZoo architectures, full participation, two workers.
func zooFederation(t *testing.T, rounds int) *Coordinator {
	t.Helper()
	ds := data.MustMake(data.Config{
		Name: "zoo", Family: data.FamilyDigits, Classes: 10,
		C: 1, H: 16, W: 16, TrainPerClass: 16, TestPerClass: 10, Seed: 92,
	})
	cfg := Config{
		Rounds: rounds, EvalEvery: rounds, LocalEpochs: 1,
		DistillIters: 2, StudentSteps: 1, DistillBatch: 16, BatchSize: 16, ZDim: 16,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9, Workers: 2, Seed: 93,
	}
	co, err := New(cfg, ds, model.SmallZoo(), partition.IID(ds.NumTrain(), 10, tensor.NewRand(94)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	return co
}

// TestRigArenaRetention: after a three-round ten-device SmallZoo
// federation every rig's step arena — which trained and evaluated all
// five architectures — holds no more than 1.5 × the largest step it
// served, that step is a training step (a forward-only evaluation at
// four times the batch stays below it), and the scrape reports exactly
// what the arenas say.
func TestRigArenaRetention(t *testing.T) {
	co := zooFederation(t, 3)
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var held, peak int64
	for w := 0; w < 2; w++ {
		step := co.pool.WorkerScratch(w).(*deviceRig).step.T
		h, p := step.HeldBytes(), step.StepPeakBytes()
		t.Logf("rig %d step arena: held %d bytes, largest step %d (%.2f×)", w, h, p, float64(h)/float64(p))
		if p == 0 || float64(h) > 1.5*float64(p) {
			t.Errorf("rig %d step arena holds %d bytes for a largest step of %d", w, h, p)
		}
		held, peak = held+h, peak+p
	}
	// Evaluating every model once more, on a fresh arena, shows what the
	// largest evaluation step is.
	ev := ag.NewArena()
	for id := range co.devices {
		withDevice(t, co, id, func(d *fed.Device) { fed.EvaluateArena(d.Model, co.ds, 64, ev) })
	}
	if e := ev.T.StepPeakBytes(); 2*e >= peak {
		t.Errorf("the largest evaluation step is %d bytes, the rigs' largest steps %d and %d: not training's", e, peak/2, peak-peak/2)
	}
	checkScraped(t, map[string]int64{
		"fedzkt_arena_rig_step_held_bytes":      held,
		"fedzkt_arena_rig_step_step_peak_bytes": peak,
		"fedzkt_arena_phase_held_bytes":         co.server.phase.T.HeldBytes(),
	})
}

// TestArenaGaugesScrapeDuringRun scrapes the process-wide registry — the
// one -listen-metrics serves — continuously while a federation runs: every
// gauge reads atomics (the arenas' own, the registry's live-module count),
// never state a running phase writes, so the race detector must stay
// quiet, and every arena owner ends up reporting a held figure no smaller
// than its largest step.
func TestArenaGaugesScrapeDuringRun(t *testing.T) {
	co := zooFederation(t, 2)
	scrape := func() map[string]any {
		var buf bytes.Buffer
		var vars map[string]any
		if err := obs.Default().WriteJSON(&buf); err != nil {
			t.Error(err)
		} else if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
			t.Error(err)
		}
		return vars
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape()
			}
		}
	}()
	_, err := co.Run(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	vars := scrape()
	for _, owner := range []string{"phase", "server_worker", "rig_step", "rig_task"} {
		held, _ := vars["fedzkt_arena_"+owner+"_held_bytes"].(float64)
		peak, _ := vars["fedzkt_arena_"+owner+"_step_peak_bytes"].(float64)
		if peak <= 0 || held < peak {
			t.Errorf("%s arenas: held %v bytes, largest step %v", owner, held, peak)
		}
	}
	if live, _ := vars["fedzkt_server_live_replicas"].(float64); int(live) != co.server.LiveReplicas() || live <= 0 {
		t.Errorf("fedzkt_server_live_replicas scraped %v, the server holds %d", live, co.server.LiveReplicas())
	}
}
