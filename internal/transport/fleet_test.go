package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// TestLoopbackMatchesInProcess is the first cell of the path-equivalence
// matrix: one seed, a mixed zoo, full participation — the loopback
// federation and the in-process coordinator built from the same dataset
// and shards compute the same rounds, field for fingerprinted field,
// except the byte columns (measured frames against priced payloads). The
// same round engine runs both, so the loopback run also feeds the fedzkt_*
// round counters and emits the fed/* stage spans.
func TestLoopbackMatchesInProcess(t *testing.T) {
	const devices = 4
	archs := []string{"mlp", "lenet-s"}
	sizes := data.Sizes{TrainPerClass: 10, TestPerClass: 4}
	fedCfg := fedzkt.Config{
		Rounds: 3, LocalEpochs: 1, DistillIters: 3, StudentSteps: 1,
		DistillBatch: 8, BatchSize: 8, ZDim: 8,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9, Seed: 5,
		ProbeGradNorm: true,
	}

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumDevices: devices, DatasetName: "synthmnist",
		Sizes: sizes, Fed: fedCfg, IOTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var tcp fed.History
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tcp, runErr = srv.Run(ctx)
	}()
	// Dial one device at a time, the next only once the server has opened
	// the previous one's session, so ids follow dial order.
	var wg sync.WaitGroup
	devErrs := make([]error, devices)
	for i := range devices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, devErrs[i] = RunDevice(ctx, DeviceConfig{Addr: srv.Addr(), Arch: archs[i%len(archs)], IOTimeout: time.Minute})
		}()
		for len(srv.SessionStats()) <= i {
			select {
			case <-done:
				t.Fatalf("server stopped during registration: %v", runErr)
			case <-time.After(time.Millisecond):
			}
		}
	}
	<-done
	wg.Wait()
	if runErr != nil {
		t.Fatalf("server: %v", runErr)
	}
	for i, err := range devErrs {
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}

	// The loopback run's round counters, read before the in-process
	// coordinator below takes over the names.
	var scrape bytes.Buffer
	if err := obs.Default().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("fedzkt_rounds_total %d\n", fedCfg.Rounds),
		fmt.Sprintf("fedzkt_uploads_absorbed_total %d\n", fedCfg.Rounds*devices),
		"fedzkt_uploads_late_total 0\n",
		"fedzkt_uploads_dropped_total 0\n",
	} {
		if !strings.Contains(scrape.String(), "\n"+want) {
			t.Errorf("loopback scrape lacks %q", want)
		}
	}
	var trace bytes.Buffer
	if err := obs.DefaultTracer().WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"round", "local_phase", "server_distill", "evaluate"} {
		if !strings.Contains(trace.String(), fmt.Sprintf(`{"name":%q,"cat":"fed"`, name)) {
			t.Errorf("loopback trace lacks a fed/%s span", name)
		}
	}

	ds, ok := data.ByName("synthmnist", sizes, fedCfg.Seed)
	if !ok {
		t.Fatal("synthmnist missing")
	}
	shards, err := shardsFor(ds, devices, "", fedCfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	co, err := fedzkt.New(fedCfg, ds, archs, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	local, err := co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if len(tcp) != len(local) {
		t.Fatalf("loopback finalised %d rounds, in-process %d", len(tcp), len(local))
	}
	informative := false
	for i, want := range local {
		got := tcp[i]
		if !slices.Equal(got.Active, want.Active) || !slices.Equal(got.Dropped, want.Dropped) || !slices.Equal(got.Injected, want.Injected) {
			t.Errorf("round %d participation: loopback %v/%v/%v, in-process %v/%v/%v", want.Round,
				got.Active, got.Dropped, got.Injected, want.Active, want.Dropped, want.Injected)
		}
		if got.GlobalAcc != want.GlobalAcc || got.MeanDeviceAcc != want.MeanDeviceAcc || got.InputGradNorm != want.InputGradNorm {
			t.Errorf("round %d: loopback global/mean/gradnorm %v/%v/%v, in-process %v/%v/%v", want.Round,
				got.GlobalAcc, got.MeanDeviceAcc, got.InputGradNorm, want.GlobalAcc, want.MeanDeviceAcc, want.InputGradNorm)
		}
		if !slices.Equal(got.DeviceAcc, want.DeviceAcc) {
			t.Errorf("round %d device accuracies: loopback %v, in-process %v", want.Round, got.DeviceAcc, want.DeviceAcc)
		}
		if got.BytesUp < want.BytesUp || got.BytesDown < want.BytesDown {
			t.Errorf("round %d: loopback frames %d/%d bytes carry less than the payloads %d/%d",
				want.Round, got.BytesUp, got.BytesDown, want.BytesUp, want.BytesDown)
		}
		informative = informative || want.InputGradNorm > 0
	}
	if !informative {
		t.Error("gradient-norm probe stayed at zero: the comparison has no second witness")
	}
}

// TestUnsolicitedUploadNotAbsorbed pins the trust boundary of upload
// collection over raw connections: a device the round did not sample
// cannot push an upload into it, and a "late" upload for an earlier round
// the device was never asked to train is not absorbed either, whatever the
// staleness bound.
func TestUnsolicitedUploadNotAbsorbed(t *testing.T) {
	const rounds = 2
	cfg := chaosServerConfig(2, rounds, 0, 1, 20*time.Second)
	cfg.Fed.ActiveFraction = 0.5 // one of the two devices per round
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var hist fed.History
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		hist, runErr = srv.Run(ctx)
	}()

	// Two hand-driven devices, each with a reader feeding an inbox so the
	// test can see which of them a round asks.
	var conns [2]net.Conn
	var payloads [2][]byte
	var inbox [2]chan *Message
	for i := range conns {
		dev, conn := manualDevice(t, srv.Addr())
		defer conn.Close()
		if dev.id != i {
			t.Fatalf("device dialled %d got id %d", i, dev.id)
		}
		conns[i], inbox[i] = conn, make(chan *Message, 64)
		if payloads[i], _, err = dev.dev.UploadPayload(dev.cdc); err != nil {
			t.Fatal(err)
		}
		go func() {
			defer close(inbox[i])
			for {
				m, err := ReadMessage(conn)
				if err != nil {
					return
				}
				inbox[i] <- m
			}
		}()
	}
	await := func(id int, want MsgType, round int) {
		t.Helper()
		for m := range inbox[id] {
			if m.Type == want && (round == 0 || m.Round == round) {
				return
			}
		}
		t.Fatalf("device %d: connection ended waiting for %v (round %d)", id, want, round)
	}
	upload := func(id, round int) {
		t.Helper()
		if err := WriteMessage(conns[id], &Message{Type: MsgUpload, Round: round, DeviceID: id, Payload: payloads[id]}); err != nil {
			t.Fatal(err)
		}
		await(id, MsgUploadAck, round) // acked whatever became of it
	}

	idleInRound1 := -1
	for round := 1; round <= rounds; round++ {
		asked := -1
		for asked < 0 {
			select {
			case m := <-inbox[0]:
				if m != nil && m.Type == MsgTrainRequest && m.Round == round {
					asked = 0
				}
			case m := <-inbox[1]:
				if m != nil && m.Type == MsgTrainRequest && m.Round == round {
					asked = 1
				}
			case <-done:
				t.Fatalf("server stopped in round %d: %v", round, runErr)
			}
		}
		idle := 1 - asked
		// The round is open until the asked device uploads: everything
		// sent before that lands in its collection window.
		upload(idle, round)
		if round == 1 {
			idleInRound1 = idle
		} else {
			upload(idleInRound1, 1) // one round stale, inside the bound, never asked for
		}
		upload(asked, round)
	}
	await(0, MsgDone, 0)
	await(1, MsgDone, 0)
	<-done
	if runErr != nil {
		t.Fatalf("server: %v", runErr)
	}
	if len(hist) != rounds {
		t.Fatalf("history length %d, want %d", len(hist), rounds)
	}
	for i, dropped := range []int{1, 2} { // round 2 also saw the stale one
		if m := hist[i]; m.Absorbed != 1 || m.LateAbsorbed != 0 || m.DroppedUploads != dropped {
			t.Errorf("round %d: absorbed %d, late %d, dropped uploads %d; want 1, 0, %d",
				m.Round, m.Absorbed, m.LateAbsorbed, m.DroppedUploads, dropped)
		}
	}
	for _, st := range srv.SessionStats() {
		if st.Late != 0 {
			t.Errorf("device %d: %d late absorbs, want 0", st.ID, st.Late)
		}
	}
}

// TestNewServerRejectsUnsupportedFed: a fedzkt.Config field the session
// fleet cannot honour is refused by name instead of being dropped
// silently; the ones the engine honours for every fleet are accepted.
func TestNewServerRejectsUnsupportedFed(t *testing.T) {
	for field, mutate := range map[string]func(*fedzkt.Config){
		"PipelineDepth": func(c *fedzkt.Config) { c.PipelineDepth = 1 },
		"CheckpointDir": func(c *fedzkt.Config) { c.CheckpointDir = t.TempDir() },
		"Resume":        func(c *fedzkt.Config) { c.Resume = true },
		"FailureRate":   func(c *fedzkt.Config) { c.FailureRate = 0.1 },
		"": func(c *fedzkt.Config) {
			c.SampleK, c.EvalEvery, c.EvalDevices = 1, 2, 1
			c.Workers = 2
		},
	} {
		cfg := chaosServerConfig(2, 1, 0, 0, time.Second)
		mutate(&cfg.Fed)
		srv, err := NewServer(cfg)
		if srv != nil {
			srv.Close()
		}
		switch {
		case field == "" && err != nil:
			t.Errorf("supported settings rejected: %v", err)
		case field != "" && (err == nil || !strings.Contains(err.Error(), "Fed."+field)):
			t.Errorf("%s: error %v does not name the field", field, err)
		}
	}
}
