package fedzkt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// resident turns toyFleet's configuration into the default one:
// unbounded in-memory replica and device stores, float64 on the wire.
func resident(c *Config) {
	c.ReplicaStore, c.HotSet, c.StateCodec = "", 0, ""
}

// residentCodecs runs f on the resident fleet's two payload regimes:
// float64 and int8 containers. The free list serves both, so its counts
// are the same.
func residentCodecs(f func(codec string, mutate func(*Config))) {
	for _, codec := range []string{"float64", "int8"} {
		f(codec, func(c *Config) { resident(c); c.StateCodec = codec })
	}
}

// freeBuffers counts the payload buffers currently in the free list.
func freeBuffers(co *Coordinator) (total int, perArch map[string]int) {
	co.payloads.mu.Lock()
	defer co.payloads.mu.Unlock()
	perArch = make(map[string]int)
	for arch, l := range co.payloads.free {
		perArch[arch] = len(l)
		total += len(l)
	}
	return total, perArch
}

// TestResidentRoundAllocCeiling is TestVirtualRoundAllocCeiling's twin for
// the default configuration: a steady-state round of the resident toy
// fleet — the difference between a 12-round and a 4-round run — stays
// under a byte ceiling on both engines. At depth 0 it measures ≈ 71 KB,
// under float64 and int8 alike (238 KB and 106 KB while every trained
// state was staged in a payload buffer for the barrier to copy into its
// replica), and at depth 2 ≈ 0.24 MB, where heap parameter gradients and
// a proximal-anchor clone per participation plus a dense upload clone and
// a dense download clone per completed device cost 3.4 MB; the ceiling
// sits at a quarter of that. (The race detector adds
// ≈ 2.8 MB a round of its own to either figure, so a -race build checks
// everything but the ceiling.) TestDeviceLifecycle pins what a device holds
// once its task has ended.
func TestResidentRoundAllocCeiling(t *testing.T) {
	const short, long, ceiling = 4, 12, 850 << 10
	for _, tc := range []struct {
		name  string
		depth int
		codec string
	}{{"depth0", 0, ""}, {"depth2", 2, ""}, {"depth0-int8", 0, "int8"}} {
		t.Run(tc.name, func(t *testing.T) {
			mutate := func(c *Config) { resident(c); c.PipelineDepth, c.StateCodec = tc.depth, tc.codec }
			_ = runAllocs(t, toyFleet(t, short, mutate)) // warm the process-wide pools
			a := runAllocs(t, toyFleet(t, short, mutate))
			co := toyFleet(t, long, mutate)
			b := runAllocs(t, co)
			perRound := (float64(b) - float64(a)) / (long - short)
			t.Logf("steady-state allocation: %.0f bytes/round", perRound)
			if perRound > ceiling && !raceEnabled {
				t.Errorf("a steady-state resident round allocates %.0f bytes, ceiling %d", perRound, ceiling)
			}
			built, reused := co.PayloadBufferStats()
			if free, _ := freeBuffers(co); int64(free) != built {
				t.Errorf("%d payload buffers built, %d back in the free list after the run", built, free)
			}
			// 8 downloads per round, all but the first few from the list,
			// and at depth 2 as many staged uploads; a depth-0 task writes
			// its trained state straight into its replica.
			want := int64(8 * long)
			if tc.depth > 0 {
				want *= 2
			}
			if built+reused != want {
				t.Errorf("payload buffers served %d copies, want %d", built+reused, want)
			}
			checkScraped(t, map[string]int64{
				"fedzkt_payload_buffers_built_total":  built,
				"fedzkt_payload_buffers_reused_total": reused,
			})
		})
	}
}

// TestPayloadBuffersBounded pins the free list's size: it never holds more
// buffers than were in flight at once, whatever a run throws at it.
func TestPayloadBuffersBounded(t *testing.T) {
	t.Run("reconcile", func(t *testing.T) {
		// Reconciling copies nothing at any depth: every device follows
		// its replica outright, even once a full-participation round has
		// written every one of them — here by loading that round's
		// checkpoint into a fresh fleet — so a resident resume is
		// O(touched devices) and builds no buffer.
		residentCodecs(func(codec string, mutate func(*Config)) {
			full := func(c *Config) { mutate(c); c.SampleK = 24 }
			ran := toyFleet(t, 1, full)
			if _, err := ran.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			if err := ran.SaveCheckpoint(&blob); err != nil {
				t.Fatal(err)
			}
			for _, depth := range []int{0, 1} {
				co := toyFleet(t, 1, func(c *Config) { full(c); c.PipelineDepth = depth })
				if err := co.LoadCheckpoint(bytes.NewReader(blob.Bytes())); err != nil {
					t.Fatal(err)
				}
				if built, reused := co.PayloadBufferStats(); built != 0 || reused != 0 {
					t.Errorf("%s depth %d: reconciling 24 devices of 2 architectures built %d buffers and reused %d, want none",
						codec, depth, built, reused)
				}
				if held := deviceSlotsHeld(co); len(held) > 0 || slices.Contains(co.follows, false) {
					t.Errorf("%s depth %d: after reconciling, device slots %v hold a state; every device should follow its replica", codec, depth, held)
				}
			}
		})
	})
	t.Run("sync", func(t *testing.T) {
		// Full participation at depth 0: no upload takes a buffer, and
		// each download goes back to the list before the next one is
		// published, so one buffer per architecture serves the whole run
		// (staging every upload for the barrier built K of them).
		const rounds, k = 6, 24
		residentCodecs(func(codec string, mutate func(*Config)) {
			co := toyFleet(t, rounds, func(c *Config) { mutate(c); c.SampleK = k })
			if _, err := co.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			built, reused := co.PayloadBufferStats()
			if built+reused != k*rounds {
				t.Errorf("%s: buffers served %d copies, want the %d downloads", codec, built+reused, k*rounds)
			}
			free, perArch := freeBuffers(co)
			if int64(free) != built {
				t.Errorf("%s: %d buffers built, %d back in the free list", codec, built, free)
			}
			for arch, n := range perArch {
				if n > 1 {
					t.Errorf("%s: depth-0 run built %d %s buffers, want at most one", codec, n, arch)
				}
			}
		})
	})
	t.Run("pipelined", func(t *testing.T) {
		// Full participation, so every batch holds the same 12 + 12
		// buffers: at most depth+1 rounds are between staging and applied
		// download (a round's uploads go back before its downloads are
		// taken), plus the one being staged — however long the run.
		const depth, rounds, k = 2, 30, 24
		residentCodecs(func(codec string, mutate func(*Config)) {
			co := toyFleet(t, rounds, func(c *Config) { mutate(c); c.PipelineDepth, c.SampleK = depth, k })
			if _, err := co.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			built, reused := co.PayloadBufferStats()
			if built > (depth+2)*k {
				t.Errorf("%s: depth-%d run built %d buffers, want ≤ (depth+2)·K = %d", codec, depth, built, (depth+2)*k)
			}
			if built+reused != 2*k*rounds {
				t.Errorf("%s: buffers served %d copies, want %d", codec, built+reused, 2*k*rounds)
			}
			if free, _ := freeBuffers(co); int64(free) != built {
				t.Errorf("%s: %d buffers built, %d back in the free list", codec, built, free)
			}
		})
	})
	t.Run("discarded", func(t *testing.T) {
		// A round that fails: at depth 1 every task stages its upload, and
		// under a device hot set of one entry a release evicts a trained
		// state to its spill file, whose write is made to fail. Run
		// returns that error, and every buffer the round staged — the
		// uploads that completed and the results after the failure — is
		// back in the free list.
		plan, err := chaos.Parse("spill.write.err=every:1")
		if err != nil {
			t.Fatal(err)
		}
		chaos.Activate(plan)
		defer chaos.Deactivate()
		co := toyFleet(t, 2, func(c *Config) { c.PipelineDepth, c.HotSet = 1, 1 })
		_, err = co.Run(context.Background())
		var injected *chaos.InjectedError
		if !errors.As(err, &injected) || injected.Site != chaos.SiteSpillWriteErr {
			t.Fatalf("Run = %v, want the injected spill write error", err)
		}
		built, _ := co.PayloadBufferStats()
		if built == 0 {
			t.Fatal("no task staged an upload before the failure")
		}
		if free, _ := freeBuffers(co); int64(free) != built {
			t.Errorf("%d buffers built, %d back in the free list", built, free)
		}
	})
}

// stateDigest hashes the bits of every server replica and every device's
// state at rest after a run, in either device mode.
func stateDigest(t *testing.T, co *Coordinator) string {
	t.Helper()
	h := fnv.New64a()
	for id := range co.Devices() {
		sd, err := co.Server().ReplicaState(id)
		if err != nil {
			t.Fatal(err)
		}
		hashDict(h, sd)
	}
	for id := range co.Devices() {
		hashDict(h, deviceState(t, co, id))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// The golden federation with the proximal term on (three local epochs, so
// the term is non-zero from the second step), sampled teachers and weight
// decay: History.Fingerprint plus a digest of every final replica and
// device state (the fingerprint's 18-sample accuracies alone would hide a
// small weight divergence). Recorded when sampled transfer-back began to
// distil only into the round's participants; the lazy anchors, lent
// gradients, recycled payloads and devices that follow their replicas are
// all pure implementation changes under it.
const (
	proxGoldenFingerprint = "round=1 active=[1 2 3 5] dropped=[] injected=[] up=460512 down=460512 global=0.3333333333333333 mean=0.4259259259259259 gradnorm=0 dev=[0.4444444444444444 0.3333333333333333 0.6111111111111112 0.3333333333333333 0.3888888888888889 0.4444444444444444]\n" +
		"round=2 active=[0 1 2 3] dropped=[] injected=[] up=839520 down=839520 global=0.3333333333333333 mean=0.4537037037037037 gradnorm=0 dev=[0.6666666666666666 0.3333333333333333 0.5555555555555556 0.3333333333333333 0.3888888888888889 0.4444444444444444]\n" +
		"round=3 active=[0 1 4 5] dropped=[] injected=[4] up=440136 down=440136 global=0.3333333333333333 mean=0.46296296296296297 gradnorm=0 dev=[0.6666666666666666 0.3333333333333333 0.5555555555555556 0.3333333333333333 0.3888888888888889 0.5]\n" +
		"round=4 active=[0 2 4 5] dropped=[] injected=[5] up=1198152 down=1198152 global=0.3333333333333333 mean=0.46296296296296297 gradnorm=0 dev=[0.6666666666666666 0.3333333333333333 0.6111111111111112 0.3333333333333333 0.3333333333333333 0.5]\n"
	proxGoldenDigest       = "719860fe732faee5"
	proxGoldenDepth2Digest = "7b049b95ca8e5d45"
)

// TestProxMuDeterminismGolden pins the proximal path across the lifetime
// changes: the memory store (one worker and pooled), the spill store with
// a hot set of 2 (a depth-0 device's anchor is re-captured at every
// materialisation, since its trained states do not rest) and the depth-2
// pipelined engine over either store (trained states and heap anchors
// rest; the spill fleet's device stores evict) must reproduce the recorded
// states bit for bit.
func TestProxMuDeterminismGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned states recorded on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	run := func(mutate func(*Config)) (fp, state string, devEvictions int64) {
		ds := data.MustMake(data.Config{
			Name: "golden", Family: data.FamilyDigits, Classes: 3,
			C: 1, H: 8, W: 8, TrainPerClass: 12, TestPerClass: 6, Seed: 55,
		})
		cfg := goldenConfig()
		cfg.Rounds, cfg.LocalEpochs, cfg.ProxMu, cfg.TeachersPerIter, cfg.WeightDecay = 4, 3, 0.1, 2, 5e-4
		mutate(&cfg)
		co, err := New(cfg, ds, []string{"mlp", "lenet-s"}, partition.IID(ds.NumTrain(), 6, tensor.NewRand(56)))
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		hist, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return hist.Fingerprint(), stateDigest(t, co), co.DeviceStoreStats().Evictions
	}
	spill := func(c *Config) { c.ReplicaStore, c.HotSet = ReplicaStoreSpill, 2 }
	for _, tc := range []struct {
		name      string
		mutate    func(*Config)
		fp, state string
		evicts    bool
	}{
		{"workers1", func(c *Config) { c.Workers = 1 }, proxGoldenFingerprint, proxGoldenDigest, false},
		{"workers4", func(c *Config) { c.Workers = 4 }, proxGoldenFingerprint, proxGoldenDigest, false},
		{"spill", func(c *Config) { spill(c); c.Workers = 3 }, proxGoldenFingerprint, proxGoldenDigest, false},
		{"depth2", func(c *Config) { c.Workers = 2; c.PipelineDepth = 2 }, "", proxGoldenDepth2Digest, false},
		{"spill-depth2", func(c *Config) { spill(c); c.Workers = 2; c.PipelineDepth = 2 }, "", proxGoldenDepth2Digest, true},
	} {
		fp, state, evictions := run(tc.mutate)
		if tc.fp != "" && fp != tc.fp {
			t.Errorf("%s: fingerprint diverged from the recorded run:\n--- recorded ---\n%s--- got ---\n%s", tc.name, tc.fp, fp)
		}
		if state != tc.state {
			t.Errorf("%s: final states digest %s, recorded %s", tc.name, state, tc.state)
		}
		if tc.evicts && evictions == 0 {
			t.Errorf("%s: the device stores never evicted", tc.name)
		}
	}
	if _, state, _ := run(func(c *Config) { c.Workers = 1; c.ProxMu = 0 }); state == proxGoldenDigest {
		t.Error("the proximal term left no trace in the final states")
	}
}
