package fedzkt

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// newFuzzCheckpointCoordinator builds the coordinator FuzzLoadCheckpoint
// loads into: the smallest global model and generator the zoo builds, one
// lenet-s device whose replica is written, so a load has a slot to keep,
// replace or make virgin again, and a cursor past one finalised round. The
// caller closes it.
func newFuzzCheckpointCoordinator(tb testing.TB) *Coordinator {
	tb.Helper()
	cfg := tinyConfig()
	cfg.GlobalArch, cfg.ZDim = "lenet-s", 1
	ds := tinyDataset(77)
	co, err := New(cfg, ds, []string{"lenet-s"}, partition.IID(ds.NumTrain(), 1, tensor.NewRand(2)))
	if err != nil {
		tb.Fatal(err)
	}
	var sd nn.StateDict
	srv := co.Server()
	if sd, err = srv.ReplicaState(0); err == nil {
		err = srv.Absorb(0, sd)
	}
	if err != nil {
		_ = co.Close()
		tb.Fatal(err)
	}
	co.hist, co.nextRound = fed.History{{Round: 1}}, 2
	return co
}

// FuzzLoadCheckpoint feeds Coordinator.LoadCheckpoint arbitrary bytes. A
// load never panics, and a rejected one leaves the federation's snapshot
// byte for byte as it was. The committed corpus
// (testdata/fuzz/FuzzLoadCheckpoint) holds, for the fuzz coordinator, a
// valid version-4 federation snapshot — its global model, generator and
// replica stored as int8 containers whose quantised bytes are printable,
// so the file stays small — the same snapshot with the replica an empty
// (virgin) entry, a truncated one, one with a bad magic and one with a
// bumped version byte. The seeds added below follow whatever the
// coordinator writes today, with the global model and generator
// re-encoded as int8 (a load takes any codec's container): the float64
// snapshot is 220 KB, and the fuzzer spends its budget minimising an
// interesting input that large.
func FuzzLoadCheckpoint(f *testing.F) {
	co := newFuzzCheckpointCoordinator(f)
	f.Cleanup(func() { _ = co.Close() })
	want := snapshotBytes(f, co)
	i8, err := codec.Get(codec.Int8)
	if err != nil {
		f.Fatal(err)
	}
	cp, err := readCheckpoint(bytes.NewReader(want))
	if err == nil {
		cp.Global, _, err = codec.Reencode(i8, cp.Global)
	}
	if err == nil {
		cp.Gen, _, err = codec.Reencode(i8, cp.Gen)
	}
	var seed bytes.Buffer
	if err == nil {
		err = writeCheckpoint(&seed, cp)
	}
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := co.LoadCheckpoint(bytes.NewReader(b)); err == nil {
			// The load changed the federation: the next input starts afresh.
			_ = co.Close()
			co = newFuzzCheckpointCoordinator(t)
			want = snapshotBytes(t, co)
			return
		}
		if got := snapshotBytes(t, co); !bytes.Equal(got, want) {
			t.Fatal("a rejected load changed the federation's snapshot")
		}
	})
}

// TestFuzzLoadCheckpointValidSeedsLoad: the committed corpus's valid
// snapshots load into the fuzz coordinator, so the fuzzer starts from
// inputs that reach the commit path, not only from ones refused early.
func TestFuzzLoadCheckpointValidSeedsLoad(t *testing.T) {
	for _, name := range []string{"valid-v4", "virgin-entry-v4"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadCheckpoint", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		lit, ok := strings.CutPrefix(strings.TrimSpace(lines[1]), "[]byte(")
		if !ok || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value []byte fuzz corpus file", name)
		}
		b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		co := newFuzzCheckpointCoordinator(t)
		if err := co.LoadCheckpoint(strings.NewReader(b)); err != nil {
			t.Errorf("%s does not load: %v", name, err)
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
