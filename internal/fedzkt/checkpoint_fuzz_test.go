package fedzkt

import (
	"bytes"
	"testing"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/nn"
)

// fuzzCheckpointServer is the server FuzzLoadCheckpoint loads into: the
// smallest global model and generator the zoo builds, and one lenet-s
// device whose replica is written, so a load has a slot to keep, replace
// or make virgin again.
func fuzzCheckpointServer(tb testing.TB) *Server {
	tb.Helper()
	cfg := tinyConfig()
	cfg.GlobalArch, cfg.ZDim = "lenet-s", 1
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		tb.Fatal(err)
	}
	id, err := srv.Register("lenet-s", nil)
	var sd nn.StateDict
	if err == nil {
		sd, err = srv.ReplicaState(id)
	}
	if err == nil {
		err = srv.Absorb(id, sd)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// FuzzLoadCheckpoint feeds Server.LoadCheckpoint arbitrary bytes. A load
// never panics, and a rejected one leaves the server's checkpoint byte for
// byte as it was. The committed corpus (testdata/fuzz/FuzzLoadCheckpoint)
// holds, for the fuzz server, a valid version-4 snapshot — its global
// model, generator and replica stored as int8 containers of values that
// quantise to printable bytes, so the file stays small — the same
// snapshot with the replica an empty (virgin) entry, a truncated one, one
// with a bad magic and one with a bumped version byte. The seeds added
// below follow whatever the server writes today, with the global model
// and generator re-encoded as int8 (a load takes any codec's container):
// the float64 snapshot is 220 KB, and the fuzzer spends its budget
// minimising an interesting input that large.
func FuzzLoadCheckpoint(f *testing.F) {
	srv := fuzzCheckpointServer(f)
	want, err := srv.CheckpointBytes()
	if err != nil {
		f.Fatal(err)
	}
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
		if err := srv.LoadCheckpoint(bytes.NewReader(b)); err == nil {
			// The load changed the server: the next input starts afresh.
			srv = fuzzCheckpointServer(t)
			if want, err = srv.CheckpointBytes(); err != nil {
				t.Fatal(err)
			}
			return
		}
		got, err := srv.CheckpointBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("a rejected load changed the server's checkpoint")
		}
	})
}
