package fedzkt

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 3
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"mlp", "lenet-s"} {
		if _, err := srv.Register(arch, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Move the server away from its initialisation so the checkpoint is
	// nontrivial.
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	blob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh, empty server (same config → same shapes).
	restored, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if restored.NumDevices() != 2 {
		t.Fatalf("restored %d devices, want 2", restored.NumDevices())
	}
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
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("mlp", nil); err != nil {
		t.Fatal(err)
	}
	blob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Register("cnn", nil); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadCheckpoint(bytes.NewReader(blob)); err == nil {
		t.Fatal("want error for architecture mismatch")
	}
}

func TestCheckpointCorrupt(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadCheckpoint(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Fatal("want error for corrupt checkpoint")
	}
}

// TestCheckpointVersioning: the leading magic + format-version byte turns
// foreign blobs and version mismatches into immediate, descriptive errors
// instead of obscure mid-decode gob failures.
func TestCheckpointVersioning(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("mlp", nil); err != nil {
		t.Fatal(err)
	}
	blob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	// A future (or past) format version is named in the error.
	bumped := bytes.Clone(blob)
	bumped[4] = 99
	err = srv.LoadCheckpoint(bytes.NewReader(bumped))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want unsupported-version error naming version 99, got %v", err)
	}

	// A pre-versioned (or foreign) blob fails on the magic, not in gob.
	err = srv.LoadCheckpoint(bytes.NewReader(append([]byte("gobXstuff"), blob...)))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}

	// A truncated header is reported as such.
	if err := srv.LoadCheckpoint(bytes.NewReader(blob[:3])); err == nil {
		t.Fatal("want error for truncated header")
	}

	// One record, two kinds: a federation snapshot loads into a server,
	// which ignores its round cursor, and a coordinator refuses a snapshot
	// without one.
	ds := tinyDataset(77)
	shards := [][]int{{0, 1, 2}, {3, 4, 5}}
	cfg := tinyConfig()
	cfg.Rounds = 1
	co, err := New(cfg, ds, []string{"mlp"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	var coBlob bytes.Buffer
	if err := co.SaveCheckpoint(&coBlob); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadCheckpoint(bytes.NewReader(coBlob.Bytes())); err != nil {
		t.Fatalf("a federation snapshot did not load into a server: %v", err)
	}
	if got := fresh.NumDevices(); got != len(shards) {
		t.Fatalf("the server restored %d devices from a federation snapshot, want %d", got, len(shards))
	}
	err = co.LoadCheckpoint(bytes.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "no round cursor") {
		t.Fatalf("want a no-round-cursor error from a coordinator loading a server snapshot, got %v", err)
	}
}

// TestCheckpointResumeContinuesTraining: a restored server can keep
// distilling — the checkpoint is operational state, not just weights.
func TestCheckpointResumeContinuesTraining(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("mlp", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	blob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Distill(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	for _, p := range restored.Global().Params() {
		if !p.Value().IsFinite() {
			t.Fatal("restored server produced non-finite parameters")
		}
	}
}

// TestCheckpointPersistsOnlyWrittenReplicas: a checkpoint stores a replica
// only where its slot was written and an empty entry where it is virgin.
// A load leaves an empty entry's slot virgin — or makes it virgin again,
// after the beforeWrite hook gave a follower of the replica its copy — and
// a snapshot of another seed is refused: a virgin slot's content is a
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
	var blob bytes.Buffer
	if err := co.SaveCheckpoint(&blob); err != nil {
		t.Fatal(err)
	}
	cp, err := readCheckpoint(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range cp.Replicas {
		if (len(b) == 0) != want[i] {
			t.Errorf("replica %d: virgin %v, stored as %d bytes", i, want[i], len(b))
		}
	}

	// A fresh server that loads the snapshot writes exactly its stored
	// replicas, and every replica reads as it did in the federation.
	fresh, err := NewServer(co.cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fresh.Close() })
	if err := fresh.LoadCheckpoint(bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := virgins(fresh.cohorts); !slices.Equal(got, want) {
		t.Errorf("virgin replicas after the load %v, want the snapshot's %v", got, want)
	}
	if got := fresh.ReplicaStoreStats().HotEntries; got != written {
		t.Errorf("the loaded server holds %d states, want the %d written replicas", got, written)
	}
	for id := range want {
		a, _, errA := co.Server().ReplicaPayload(id)
		b, _, errB := fresh.ReplicaPayload(id)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("replica %d reads differently after the load (errors %v, %v)", id, errA, errB)
		}
	}

	// Loading a snapshot taken before round 1 — every entry empty — into
	// the federation makes every written replica virgin again, and a
	// device that followed one got its copy first.
	var untouched bytes.Buffer
	if err := toyFleet(t, 2, resident).SaveCheckpoint(&untouched); err != nil {
		t.Fatal(err)
	}
	followed := make(map[int]nn.StateDict)
	for id, v := range want {
		if !v && co.follows[id] {
			if followed[id], err = co.Server().ReplicaState(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(followed) == 0 {
		t.Fatal("no device follows a written replica: nothing to check")
	}
	if err := co.Server().LoadCheckpoint(bytes.NewReader(untouched.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := virgins(co.server.cohorts); slices.Contains(got, false) {
		t.Errorf("virgin replicas %v after loading a snapshot that stores none", got)
	}
	for id, sd := range followed {
		if co.follows[id] {
			t.Errorf("device %d still follows the replica the load made virgin", id)
		}
		got := deviceState(t, co, id)
		for name, w := range sd {
			if tensor.MaxAbsDiff(got[name], w) != 0 {
				t.Fatalf("device %d: state %q is not the replica it followed", id, name)
			}
		}
	}

	// A snapshot of another seed is refused before anything is registered.
	other := co.cfg
	other.Seed++
	srv, err := NewServer(other, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := srv.LoadCheckpoint(bytes.NewReader(blob.Bytes())); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("want a seed-mismatch error, got %v", err)
	}
	if n := srv.NumDevices(); n != 0 {
		t.Fatalf("a refused load registered %d devices", n)
	}
}
