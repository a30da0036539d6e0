package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type: MsgUpload, Round: 3, DeviceID: 2, Arch: "cnn",
		Payload: []byte{1, 2, 3, 4, 5},
	}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Round != 3 || out.DeviceID != 2 || out.Arch != "cnn" || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestMessageTypeStrings(t *testing.T) {
	for _, mt := range []MsgType{
		MsgHello, MsgWelcome, MsgTrainRequest, MsgUpload, MsgDownload, MsgDone,
		MsgError, MsgResume, MsgResumeAck, MsgUploadAck, MsgRoundSummary,
	} {
		if s := mt.String(); strings.HasPrefix(s, "MsgType(") {
			t.Fatalf("missing String case for %d", mt)
		}
	}
}

func TestReadMessageRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], DefaultMaxMessage+1)
	buf.Write(prefix[:])
	if _, err := ReadMessage(&buf); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgHello}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Fatal("want error for truncated frame")
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	in := &Assignment{
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 5, TestPerClass: 2},
		DataSeed:    42,
		Indices:     []int{3, 1, 4, 1, 5},
		Local:       fed.LocalConfig{Epochs: 2, BatchSize: 8, LR: 0.05},
		Rounds:      7,
		ModelSeed:   1042,
		StateCodec:  "int8",
	}
	b, err := EncodeAssignment(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeAssignment(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.DatasetName != in.DatasetName || out.Rounds != 7 || len(out.Indices) != 5 || out.Local.LR != 0.05 {
		t.Fatalf("assignment mismatch: %+v", out)
	}
	if out.StateCodec != "int8" {
		t.Fatalf("assignment StateCodec %q, want int8", out.StateCodec)
	}
}

func TestExpectSurfacesPeerError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgError, Reason: "boom"}); err != nil {
		t.Fatal(err)
	}
	if _, err := expect(&buf, MsgHello); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want peer error with reason", err)
	}
}

func TestStateDictOverWireBitExact(t *testing.T) {
	m := model.MustBuild("lenet-s", model.Shape{C: 1, H: 8, W: 8}, 4, tensor.NewRand(1))
	src := nn.CaptureState(m)
	f64, err := codec.Get(codec.Float64)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := codec.Encode(f64, src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgUpload, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Decode(out.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range src {
		if tensor.MaxAbsDiff(got[name], want) != 0 {
			t.Fatalf("state %q not bit-exact over the wire", name)
		}
	}
}

// TestEndToEndLoopback runs a real TCP federation on 127.0.0.1 with two
// heterogeneous devices and verifies the round loop completes with sane
// metrics, under the default dense codec and under int8 quantised state.
func TestEndToEndLoopback(t *testing.T) {
	dense := endToEndLoopback(t, nil)
	quant := endToEndLoopback(t, func(c *fedzkt.Config) { c.StateCodec = "int8" })
	// The quantised uplink carries ~1 byte per element instead of 8; even
	// with container overhead the measured traffic must shrink >4×.
	if quant[0].BytesUp*4 > dense[0].BytesUp {
		t.Fatalf("int8 uplink %d bytes vs float64 %d: expected >4× reduction", quant[0].BytesUp, dense[0].BytesUp)
	}
}

// endToEndLoopback runs two loopback devices through two rounds, with
// tweak (if any) applied to the federation's config.
func endToEndLoopback(t *testing.T, tweak func(*fedzkt.Config)) fed.History {
	fedCfg := fedzkt.Config{
		Rounds: 2, LocalEpochs: 1, DistillIters: 4, StudentSteps: 1,
		DistillBatch: 8, BatchSize: 8, ZDim: 8,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9, Seed: 5,
	}
	if tweak != nil {
		tweak(&fedCfg)
	}
	srv, err := NewServer(ServerConfig{
		Addr:        "127.0.0.1:0",
		NumDevices:  2,
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 10, TestPerClass: 4},
		Fed:         fedCfg,
		IOTimeout:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	devErrs := make([]error, 2)
	for i, arch := range []string{"mlp", "lenet-s"} {
		wg.Add(1)
		go func(i int, arch string) {
			defer wg.Done()
			_, _, devErrs[i] = RunDevice(ctx, DeviceConfig{
				Addr: srv.Addr(), Arch: arch, IOTimeout: time.Minute,
			})
		}(i, arch)
	}

	hist, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, err := range devErrs {
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	if len(hist) != 2 {
		t.Fatalf("history len %d, want 2", len(hist))
	}
	for _, m := range hist {
		if m.BytesUp == 0 || m.BytesDown == 0 {
			t.Fatalf("round %d: missing byte accounting (%d up, %d down)", m.Round, m.BytesUp, m.BytesDown)
		}
		if m.GlobalAcc < 0 || m.GlobalAcc > 1 {
			t.Fatalf("round %d: global acc %v", m.Round, m.GlobalAcc)
		}
	}
	return hist
}

// TestServerCancelledDuringAccept verifies ctx cancellation unblocks the
// accept loop promptly.
func TestServerCancelledDuringAccept(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr:        "127.0.0.1:0",
		NumDevices:  3,
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 4, TestPerClass: 2},
		Fed:         fedzkt.Config{Rounds: 1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("want error after cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not unblock after cancellation")
	}
}

// TestServerClosesItsCore: Close closes the fedzkt core — after a run, or
// as a run cancelled during registration returns — so a spill store's
// private directory does not outlive the server; and a Hello that reaches
// the closed core is refused with MsgError.
func TestServerClosesItsCore(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	spill := func(c *fedzkt.Config) { c.ReplicaStore = fedzkt.ReplicaStoreSpill; c.HotSet = 1 }
	leftover := func() []string {
		t.Helper()
		dirs, err := filepath.Glob(filepath.Join(tmp, "fedzkt-spill-*"))
		if err != nil {
			t.Fatal(err)
		}
		return dirs
	}

	endToEndLoopback(t, spill)
	if dirs := leftover(); len(dirs) != 0 {
		t.Fatalf("a closed server left its spill directory behind: %v", dirs)
	}

	cfg := fedzkt.Config{Rounds: 1, Seed: 1}
	spill(&cfg)
	srv, err := NewServer(ServerConfig{
		Addr:        "127.0.0.1:0",
		NumDevices:  2,
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 4, TestPerClass: 2},
		Fed:         cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Run(ctx); err == nil {
		t.Fatal("want an error from a run cancelled before registration")
	}
	if dirs := leftover(); len(dirs) != 0 {
		t.Fatalf("a cancelled run left its spill directory behind: %v", dirs)
	}

	dev, conn := net.Pipe()
	defer dev.Close()
	go srv.handleConn(conn)
	if err := WriteMessage(dev, &Message{Type: MsgHello, Arch: "mlp"}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(dev)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError {
		t.Fatalf("a Hello after the run got %v, want %v", reply.Type, MsgError)
	}
}

// TestDeviceDialFailure verifies a clean error when no server listens.
func TestDeviceDialFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := RunDevice(ctx, DeviceConfig{Addr: "127.0.0.1:1", Arch: "mlp", DialTimeout: time.Second}); err == nil {
		t.Fatal("want dial error")
	}
}
