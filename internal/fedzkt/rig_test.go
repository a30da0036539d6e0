package fedzkt

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// toyFleet builds the bounded-memory regime in miniature: 24 devices of
// two architectures, 8 sampled per round on two workers, a spill store —
// for the replicas and the devices alike — with a hot set far smaller than
// the fleet, int8 on the wire and for replicas at rest. The test's cleanup
// closes it.
func toyFleet(t *testing.T, rounds int, mutate func(*Config)) *Coordinator {
	t.Helper()
	co := newToyFleet(t, rounds, mutate)
	t.Cleanup(func() { _ = co.Close() })
	return co
}

// newToyFleet is toyFleet without the cleanup, for a test that closes the
// fleet itself and must not keep it reachable.
func newToyFleet(t *testing.T, rounds int, mutate func(*Config)) *Coordinator {
	t.Helper()
	ds := data.MustMake(data.Config{
		Name: "toyfleet", Family: data.FamilyDigits, Classes: 4,
		C: 1, H: 8, W: 8, TrainPerClass: 48, TestPerClass: 4, Seed: 71,
	})
	cfg := Config{
		Rounds: rounds, EvalEvery: rounds, LocalEpochs: 1,
		DistillIters: 2, StudentSteps: 1, DistillBatch: 4, BatchSize: 4, ZDim: 8,
		TeachersPerIter: 2, DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9,
		SampleK: 8, Workers: 2, EvalDevices: 4, Seed: 72,
		ReplicaStore: ReplicaStoreSpill, HotSet: 4, StateCodec: "int8",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	co, err := New(cfg, ds, []string{"mlp", "lenet-s"}, partition.IID(ds.NumTrain(), 24, tensor.NewRand(73)))
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// runAllocs runs co to completion and returns the bytes it allocated.
func runAllocs(t *testing.T, co *Coordinator) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestVirtualRoundAllocCeiling pins what the device rig and the
// bounded device store buy. A steady-state round of the toy
// fleet — the difference between a 12-round and a 4-round run, so set-up,
// warm-up and the one final evaluation cancel — stays under a byte
// ceiling: it measures ≈ 0.11 MB (0.88 MB while every cold load, virgin
// rebuild and download into a cold slot allocated its hot-set buffer — the
// toy fleet's hot sets of 4 evict all round — and 2.6 MB while every
// materialisation also snapshotted a proximal anchor nobody read) where one
// model build, one set of gradient sinks and one set of momentum buffers
// per participation, plus the store's decode → float64 re-encode detour,
// cost ≈ 15 MB. (A -race build's instrumentation allocates ≈ 2.8 MB a round
// on top; the ceiling is checked without it.)
// And over a whole run the pool's rigs build exactly workers × architectures device
// modules, serving every other materialisation by reuse.
func TestVirtualRoundAllocCeiling(t *testing.T) {
	const short, long, ceiling = 4, 12, 256 << 10
	_ = runAllocs(t, toyFleet(t, short, nil)) // warm the process-wide pools
	a := runAllocs(t, toyFleet(t, short, nil))
	co := toyFleet(t, long, nil)
	b := runAllocs(t, co)
	perRound := (float64(b) - float64(a)) / (long - short)
	t.Logf("steady-state allocation: %.0f bytes/round", perRound)
	if perRound > ceiling && !raceEnabled {
		t.Errorf("a steady-state toy-fleet round allocates %.0f bytes, ceiling %d", perRound, ceiling)
	}

	builds, reuses := co.rigs.builds.Load(), co.rigs.reuses.Load()
	if want := int64(2 * 2); builds != want {
		t.Errorf("rigs built %d device modules over the run, want workers × architectures = %d", builds, want)
	}
	// 12 rounds × 8 participations plus the final evaluation of 4 devices.
	if want := int64(long*8 + 4); builds+reuses != want {
		t.Errorf("rigs served %d module requests, want %d", builds+reuses, want)
	}
	for _, d := range co.Devices() {
		if d.Model != nil {
			t.Fatalf("device %d still holds a rig module after the run", d.ID)
		}
	}
	// The same counts are what the live metrics endpoint serves.
	checkScraped(t, map[string]int64{
		"fedzkt_device_rig_builds_total": builds,
		"fedzkt_device_rig_reuses_total": reuses,
	})
}

// TestVirtualProxRoundAllocCeiling: with the proximal term on, a device
// whose trained states do not rest (depth 0) re-captures its
// anchor at every materialisation — into the worker rig's
// per-architecture buffer, not into a clone of the state. A
// steady-state round with ProxMu > 0 may therefore allocate only a little
// more than one without (LocalUpdate's two small lookup maps per
// participation, ≈ 11 kB a round); a clone per materialisation costs
// ≈ 1.2 MB a round on top. (The race detector's own ≈ 2.8 MB a round
// varies by more than the ceiling between runs, so a -race build only
// runs the federations.)
func TestVirtualProxRoundAllocCeiling(t *testing.T) {
	const short, long, ceiling = 4, 12, 256 << 10
	perRound := func(mu float64) float64 {
		mutate := func(c *Config) { c.ProxMu = mu }
		_ = runAllocs(t, toyFleet(t, short, mutate)) // warm the process-wide pools
		a := runAllocs(t, toyFleet(t, short, mutate))
		b := runAllocs(t, toyFleet(t, long, mutate))
		return (float64(b) - float64(a)) / (long - short)
	}
	plain, prox := perRound(0), perRound(0.1)
	t.Logf("steady-state allocation: %.0f bytes/round without the proximal term, %.0f with", plain, prox)
	if prox-plain > ceiling && !raceEnabled {
		t.Errorf("the proximal term costs a toy-fleet round %.0f bytes, ceiling %d", prox-plain, ceiling)
	}
}

// checkScraped fails unless the process-wide registry serves exactly the
// given counter values.
func checkScraped(t *testing.T, want map[string]int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var scraped map[string]any
	if err := json.Unmarshal(buf.Bytes(), &scraped); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got, ok := scraped[name].(float64); !ok || int64(got) != w {
			t.Errorf("registry %s = %v, want %d", name, scraped[name], w)
		}
	}
}

// TestVirtualQuantisedMatchesResident: a device of the spill fleet that
// follows its int8 replica, or holds a float64 copy of it in its bounded
// store, decodes it straight into the rig's module, which must give
// exactly the values a device of the memory fleet holds after the same
// download — so neither the fingerprint of a quantised run nor any final
// replica or device state can depend on where replicas and devices are
// stored, or how many workers (hence rigs) serve them. The fingerprint's
// accuracies alone could hide a weight divergence, so the states are
// digested too.
func TestVirtualQuantisedMatchesResident(t *testing.T) {
	run := func(mutate func(*Config)) string {
		co := toyFleet(t, 3, mutate)
		hist, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return hist.Fingerprint() + "states " + stateDigest(t, co)
	}
	ref := run(func(c *Config) { c.ReplicaStore, c.HotSet = "", 0 })
	if got := run(nil); got != ref {
		t.Fatalf("spill + int8 diverged from memory-store int8 devices:\nref:\n%s\ngot:\n%s", ref, got)
	}
	if got := run(func(c *Config) { c.Workers = 5 }); got != ref {
		t.Fatal("spill + int8 diverged under Workers=5")
	}
	if got := run(func(c *Config) { c.Workers = 1; c.StateCodec = "float16" }); got != run(func(c *Config) {
		c.ReplicaStore, c.HotSet, c.StateCodec = "", 0, "float16"
	}) {
		t.Fatal("spill + float16 diverged from memory-store float16 devices")
	}
}
