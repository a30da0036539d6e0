package fedzkt

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// federation builds a coordinator of n devices on the tiny dataset, one
// IID shard each, with architectures archs (cycled); the test's cleanup
// closes it.
func federation(t testing.TB, cfg Config, n int, archs ...string) *Coordinator {
	t.Helper()
	ds := tinyDataset(77)
	co, err := New(cfg, ds, archs, partition.IID(ds.NumTrain(), n, tensor.NewRand(2)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	return co
}

// snapshotBytes is co's federation snapshot.
func snapshotBytes(t testing.TB, co *Coordinator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := co.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 3
	co := federation(t, cfg, 2, "mlp", "lenet-s")
	// Move the server away from its initialisation so the checkpoint is
	// nontrivial.
	srv := co.Server()
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	blob := snapshotBytes(t, co)

	// Restore into a fresh federation (same config → same shapes).
	fresh := federation(t, cfg, 2, "mlp", "lenet-s")
	if err := fresh.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	restored := fresh.Server()
	for _, pair := range []struct {
		name string
		a, b nn.StateDict
	}{
		{"global", nn.CaptureState(srv.Global()), nn.CaptureState(restored.Global())},
		{"generator", nn.CaptureState(srv.Generator()), nn.CaptureState(restored.Generator())},
	} {
		for name, want := range pair.a {
			if tensor.MaxAbsDiff(pair.b[name], want) != 0 {
				t.Fatalf("%s state %q not restored bit-exactly", pair.name, name)
			}
		}
	}
	for id := 0; id < 2; id++ {
		a, _ := srv.ReplicaState(id)
		b, _ := restored.ReplicaState(id)
		for name, want := range a {
			if tensor.MaxAbsDiff(b[name], want) != 0 {
				t.Fatalf("replica %d state %q not restored", id, name)
			}
		}
	}
}

func TestCheckpointArchMismatch(t *testing.T) {
	cfg := tinyConfig()
	blob := snapshotBytes(t, federation(t, cfg, 1, "mlp"))
	other := federation(t, cfg, 1, "cnn")
	if err := other.LoadCheckpoint(bytes.NewReader(blob)); err == nil || !strings.Contains(err.Error(), "architecture mismatch") {
		t.Fatalf("want an architecture-mismatch error, got %v", err)
	}
}

func TestCheckpointCorrupt(t *testing.T) {
	co := federation(t, tinyConfig(), 1, "mlp")
	if err := co.LoadCheckpoint(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Fatal("want error for corrupt checkpoint")
	}
}

// TestCheckpointVersioning: the leading magic + format-version byte turns
// foreign blobs and version mismatches into immediate, descriptive errors
// instead of obscure mid-decode gob failures.
func TestCheckpointVersioning(t *testing.T) {
	co := federation(t, tinyConfig(), 2, "mlp")
	blob := snapshotBytes(t, co)

	// A future (or past) format version is named in the error.
	bumped := bytes.Clone(blob)
	bumped[4] = 99
	err := co.LoadCheckpoint(bytes.NewReader(bumped))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want unsupported-version error naming version 99, got %v", err)
	}

	// A pre-versioned (or foreign) blob fails on the magic, not in gob.
	err = co.LoadCheckpoint(bytes.NewReader(append([]byte("gobXstuff"), blob...)))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}

	// A truncated header is reported as such.
	if err := co.LoadCheckpoint(bytes.NewReader(blob[:3])); err == nil {
		t.Fatal("want error for truncated header")
	}

	// One record, two kinds: a coordinator refuses the server's snapshot,
	// which has no round cursor, and loads its own.
	srvBlob, err := co.Server().CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	err = co.LoadCheckpoint(bytes.NewReader(srvBlob))
	if err == nil || !strings.Contains(err.Error(), "no round cursor") {
		t.Fatalf("want a no-round-cursor error from a coordinator loading a server snapshot, got %v", err)
	}
	if err := co.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatalf("a coordinator refused its own snapshot: %v", err)
	}
}

// TestCheckpointResumeContinuesTraining: a restored federation keeps
// training — the checkpoint is operational state, not just weights.
func TestCheckpointResumeContinuesTraining(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	cfg.Rounds = 1
	co := federation(t, cfg, 2, "mlp")
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := snapshotBytes(t, co)
	cfg.Rounds = 2
	restored := federation(t, cfg, 2, "mlp")
	if err := restored.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	hist, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Round != 2 {
		t.Fatalf("the restored federation ran rounds %v, want exactly round 2", hist)
	}
	for _, p := range restored.Global().Params() {
		if !p.Value().IsFinite() {
			t.Fatal("restored federation produced non-finite parameters")
		}
	}
}

// TestLoadCheckpointRefusesOtherDeviceCount: a federation snapshot loads
// only into a coordinator of exactly its devices. A 4-device snapshot in a
// 2-device coordinator, and the reverse, is refused before the first
// mutation with an error naming both counts: the coordinator's next run is
// an untouched twin's, and a resume skips such a file for an older intact
// one. A replica the coordinator has no device for would reach the
// beforeWrite hook with an index past its devices.
func TestLoadCheckpointRefusesOtherDeviceCount(t *testing.T) {
	cfg := tinyConfig()
	cfg.Rounds = 1
	archs := []string{"mlp", "lenet-s"}
	// ran runs an n-device federation's one round (full participation
	// writes every replica) and returns its snapshot and fingerprint, the
	// untouched twin's for a refused load into an n-device coordinator.
	ran := func(n int) (blob []byte, fp string) {
		co := federation(t, cfg, n, archs...)
		hist, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return snapshotBytes(t, co), hist.Fingerprint()
	}
	blob4, fp4 := ran(4)
	blob2, fp2 := ran(2)
	for _, tc := range []struct {
		name     string
		blob     []byte
		from, to int
		twin     string
	}{
		{"4 into 2", blob4, 4, 2, fp2},
		{"2 into 4", blob2, 2, 4, fp4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := federation(t, cfg, tc.to, archs...)
			err := co.LoadCheckpoint(bytes.NewReader(tc.blob))
			if err == nil {
				t.Fatal("a snapshot of another device count loaded")
			}
			for _, want := range []string{fmt.Sprintf("checkpoint of %d devices", tc.from), fmt.Sprintf("federation of %d", tc.to)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
			hist, err := co.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := hist.Fingerprint(); got != tc.twin {
				t.Fatalf("the run after a refused load diverged from an untouched twin's:\n got %q\nwant %q", got, tc.twin)
			}
		})
	}

	// A resume walks the directory newest first: the 4-device file is
	// refused and the older 2-device one loads. Its cursor is past
	// cfg.Rounds, so the resumed run executes nothing and reports the
	// loaded history.
	dir := t.TempDir()
	for round, blob := range map[int][]byte{1: blob2, 2: blob4} {
		if _, err := SaveCheckpointFile(dir, round, blob, 0); err != nil {
			t.Fatal(err)
		}
	}
	resume := cfg
	resume.CheckpointDir, resume.Resume = dir, true
	rc := federation(t, resume, 2, archs...)
	if hist, err := rc.Run(context.Background()); err != nil || len(hist) != 0 {
		t.Fatalf("resume over a bigger federation's newest file: ran %v, error %v; want the older file loaded and nothing run", hist, err)
	}
	if got := rc.History().Fingerprint(); got != fp2 {
		t.Fatalf("the resume loaded another history than the intact 2-device file's:\n got %q\nwant %q", got, fp2)
	}
}

// TestCheckpointPersistsOnlyWrittenReplicas: a checkpoint stores a replica
// only where its slot was written and an empty entry where it is virgin.
// A load leaves an empty entry's slot virgin — or makes it virgin again —
// and a snapshot of another seed is refused: a virgin slot's content is a
// function of (Seed, id).
func TestCheckpointPersistsOnlyWrittenReplicas(t *testing.T) {
	virgins := func(cs *cohortSet) []bool {
		v := make([]bool, cs.numDevices())
		for i, ref := range cs.devices {
			v[i] = cs.virgin(ref)
		}
		return v
	}
	co := toyFleet(t, 2, resident)
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := virgins(co.server.cohorts)
	written := 0
	for _, v := range want {
		if !v {
			written++
		}
	}
	if written == 0 || written == len(want) {
		t.Fatalf("virgin replicas %v after a sampled run: want both written and virgin ones", want)
	}
	blob := snapshotBytes(t, co)
	cp, err := readCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range cp.Replicas {
		if (len(b) == 0) != want[i] {
			t.Errorf("replica %d: virgin %v, stored as %d bytes", i, want[i], len(b))
		}
	}

	// A fresh federation that loads the snapshot writes exactly its stored
	// replicas, and every replica reads as it did in the saved one.
	fresh := toyFleet(t, 2, resident)
	if err := fresh.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if got := virgins(fresh.server.cohorts); !slices.Equal(got, want) {
		t.Errorf("virgin replicas after the load %v, want the snapshot's %v", got, want)
	}
	if got := fresh.Server().ReplicaStoreStats().HotEntries; got != written {
		t.Errorf("the loaded federation holds %d replica states, want the %d written replicas", got, written)
	}
	for id := range want {
		a, _, errA := co.Server().ReplicaPayload(id)
		b, _, errB := fresh.Server().ReplicaPayload(id)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("replica %d reads differently after the load (errors %v, %v)", id, errA, errB)
		}
	}

	// Loading a snapshot taken before round 1 — every entry empty — into
	// the federation makes every written replica virgin again, and every
	// device then follows its replica's seeded state.
	untouched := toyFleet(t, 2, resident)
	if err := co.LoadCheckpoint(bytes.NewReader(snapshotBytes(t, untouched))); err != nil {
		t.Fatal(err)
	}
	if got := virgins(co.server.cohorts); slices.Contains(got, false) {
		t.Errorf("virgin replicas %v after loading a snapshot that stores none", got)
	}
	for id, v := range want {
		if v {
			continue
		}
		if !co.follows[id] {
			t.Errorf("device %d does not follow its replica after the load", id)
		}
		seeded := deviceState(t, untouched, id)
		got := deviceState(t, co, id)
		for name, w := range seeded {
			if tensor.MaxAbsDiff(got[name], w) != 0 {
				t.Fatalf("device %d: state %q is not its seeded state after the load", id, name)
			}
		}
	}

	// A snapshot of another seed is refused.
	other := toyFleet(t, 2, func(c *Config) {
		resident(c)
		c.Seed++
	})
	if err := other.LoadCheckpoint(bytes.NewReader(blob)); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("want a seed-mismatch error, got %v", err)
	}
}
