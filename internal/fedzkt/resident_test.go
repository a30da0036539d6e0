package fedzkt

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// resident turns toyFleet's configuration into the default one: live
// device models, in-memory replica slots, float64 on the wire.
func resident(c *Config) {
	c.VirtualDevices, c.ReplicaStore, c.HotSet, c.StateCodec = false, "", 0, ""
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
// under a byte ceiling on both engines. It measures ≈ 0.23 MB where heap
// parameter gradients and a proximal-anchor clone per participation plus a
// dense upload clone and a dense download clone per completed device cost
// 3.4 MB; the ceiling sits at a quarter of that, and int8 payloads — an
// eighth the size, recycled by the same free list — stay far under it
// (≈ 0.09 MB). (The race detector adds
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
			// 8 uploads and 8 downloads per round, all but the first few
			// from the list.
			if want := int64(2 * 8 * long); built+reused != want {
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
		// At PipelineDepth ≥ 1, where a device keeps a copy of its replica,
		// one publish → apply at a time: one buffer per architecture serves
		// all 24 devices, once a full-participation round has written every
		// one of them — here reconciled by loading that round's checkpoint
		// into a fresh fleet. At depth 0 every device follows its replica
		// instead, and reconciling copies nothing.
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
				_, perArch := freeBuffers(co)
				for arch, n := range perArch {
					if n > 1 {
						t.Errorf("%s depth %d: reconciling left %d %s buffers in the list, want ≤ 1", codec, depth, n, arch)
					}
				}
				wantBuilt, wantReused := int64(2), int64(22)
				if depth == 0 {
					wantBuilt, wantReused = 0, 0
				}
				if built, reused := co.PayloadBufferStats(); built != wantBuilt || reused != wantReused {
					t.Errorf("%s depth %d: reconciling 24 devices of 2 architectures built %d buffers and reused %d, want %d and %d",
						codec, depth, built, reused, wantBuilt, wantReused)
				}
			}

			// A fresh depth-1 fleet reconciles only the devices written on
			// either side: none, under any codec, since every slot is only
			// reserved, so a resident resume is O(touched devices).
			fresh := toyFleet(t, 1, func(c *Config) { mutate(c); c.PipelineDepth = 1 })
			if err := fresh.reconcileDevices(); err != nil {
				t.Fatal(err)
			}
			if built, reused := fresh.PayloadBufferStats(); built != 0 || reused != 0 {
				t.Errorf("%s: reconciling a fresh fleet built %d buffers and reused %d, want none", codec, built, reused)
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
		// A deadline far shorter than one local update: a worker's first
		// task of a round starts in time, stages its upload and finishes
		// after the bell; the rest never start; some are failure-injected.
		// Nothing is absorbed, and every staged buffer must come back.
		residentCodecs(func(codec string, mutate func(*Config)) {
			co := toyFleet(t, 3, func(c *Config) {
				mutate(c)
				c.LocalEpochs, c.RoundDeadline, c.FailureRate = 400, 5*time.Millisecond, 0.3
			})
			hist, err := co.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			dropped := 0
			for _, m := range hist {
				dropped += len(m.Dropped)
			}
			built, _ := co.PayloadBufferStats()
			if dropped == 0 || built == 0 {
				t.Fatalf("%s: want late tasks with staged uploads: %d dropped, %d buffers built", codec, dropped, built)
			}
			if free, _ := freeBuffers(co); int64(free) != built {
				t.Errorf("%s: %d buffers built, %d back in the free list", codec, built, free)
			}
		})
	})
}

// stateDigest hashes the bits of every server replica and every device's
// state at rest after a run, in either device mode.
func stateDigest(t *testing.T, co *Coordinator) string {
	t.Helper()
	h := fnv.New64a()
	add := func(sd nn.StateDict) {
		var b [8]byte
		for _, name := range sd.Names() {
			for _, v := range sd[name].Data() {
				u := math.Float64bits(v)
				for i := range b {
					b[i] = byte(u >> (8 * i))
				}
				h.Write(b[:])
			}
		}
	}
	for id := range co.Devices() {
		sd, err := co.Server().ReplicaState(id)
		if err != nil {
			t.Fatal(err)
		}
		add(sd)
	}
	for id := range co.Devices() {
		add(deviceState(t, co, id))
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
// changes: resident devices (one worker and pooled), virtual devices
// (whose anchor is re-captured at every materialisation, and whose states
// at rest are the resident ones) and the depth-2 pipelined engine must
// reproduce the recorded states bit for bit.
func TestProxMuDeterminismGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned states recorded on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	run := func(mutate func(*Config)) (string, string) {
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
		return hist.Fingerprint(), stateDigest(t, co)
	}
	for _, tc := range []struct {
		name      string
		mutate    func(*Config)
		fp, state string
	}{
		{"workers1", func(c *Config) { c.Workers = 1 }, proxGoldenFingerprint, proxGoldenDigest},
		{"workers4", func(c *Config) { c.Workers = 4 }, proxGoldenFingerprint, proxGoldenDigest},
		{"virtual", func(c *Config) { c.Workers = 3; c.VirtualDevices = true }, proxGoldenFingerprint, proxGoldenDigest},
		{"depth2", func(c *Config) { c.Workers = 2; c.PipelineDepth = 2 }, "", proxGoldenDepth2Digest},
	} {
		fp, state := run(tc.mutate)
		if tc.fp != "" && fp != tc.fp {
			t.Errorf("%s: fingerprint diverged from the recorded run:\n--- recorded ---\n%s--- got ---\n%s", tc.name, tc.fp, fp)
		}
		if state != tc.state {
			t.Errorf("%s: final states digest %s, recorded %s", tc.name, state, tc.state)
		}
	}
	if _, state := run(func(c *Config) { c.Workers = 1; c.ProxMu = 0 }); state == proxGoldenDigest {
		t.Error("the proximal term left no trace in the final states")
	}
}
