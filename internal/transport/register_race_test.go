package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
)

// tapConn copies everything the device reads off its connection into w,
// so a test can decode the server's frames without sitting in the
// device's protocol loop.
type tapConn struct {
	net.Conn
	w *io.PipeWriter
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		_, _ = c.w.Write(p[:n]) // the counting goroutine always drains the pipe
	}
	return n, err
}

// TestOneTrainRequestPerDeviceRound is the regression test for the
// registration race: the round loop used to start as soon as the last
// replica was installed, before that device's session was attached (and
// with every fresh registration's attach event still queued), so round
// 1's train request reached a device once, twice, or dropped-and-resent
// depending on timing — and the wire totals moved with it. Now every
// (device, round) sees exactly one request when sampled and none
// otherwise, and the measured wire totals repeat pass to pass.
func TestOneTrainRequestPerDeviceRound(t *testing.T) {
	const devices, rounds = 8, 3
	passes := 4
	if testing.Short() {
		passes = 2
	}
	var firstUp, firstDown int64
	for pass := 0; pass < passes; pass++ {
		srv, err := NewServer(ServerConfig{
			Addr:       "127.0.0.1:0",
			NumDevices: devices,
			Sizes:      data.Sizes{TrainPerClass: 8, TestPerClass: 2},
			Fed: fedzkt.Config{
				Rounds: rounds, ActiveFraction: 0.25, LocalEpochs: 1,
				TeachersPerIter: 2, DistillIters: 1, StudentSteps: 1, DistillBatch: 4,
				BatchSize: 8, ZDim: 8, DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Seed: 9,
			},
			IOTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		runDone := make(chan error, 1)
		var active [][]int
		go func() {
			hist, err := srv.Run(ctx)
			for _, m := range hist {
				active = append(active, m.Active)
			}
			runDone <- err
		}()

		// requests[id][round] is written by device id's counting goroutine
		// alone and read after wg.Wait.
		requests := make([][]int, devices)
		serveErrs := make([]error, devices)
		var wg sync.WaitGroup
		for id := 0; id < devices; id++ {
			// Registering one device at a time makes ids follow dial order,
			// so wire totals are comparable across passes.
			sess, conn := manualDevice(t, srv.Addr())
			if sess.id != id {
				t.Fatalf("pass %d: device registered as %d, want %d", pass, sess.id, id)
			}
			requests[id] = make([]int, rounds+1)
			pr, pw := io.Pipe()
			wg.Add(2)
			go func(id int) {
				defer wg.Done()
				for {
					m, err := ReadMessage(pr)
					if err != nil {
						return
					}
					if m.Type == MsgTrainRequest && m.Round >= 1 && m.Round <= rounds {
						requests[id][m.Round]++
					}
				}
			}(id)
			go func(id int) {
				defer wg.Done()
				serveErrs[id] = sess.serve(ctx, tapConn{Conn: conn, w: pw})
				_ = pw.Close()
				_ = conn.Close()
			}(id)
		}
		if err := <-runDone; err != nil {
			t.Fatalf("pass %d: server: %v", pass, err)
		}
		wg.Wait()
		cancel()
		for id, err := range serveErrs {
			if !errors.Is(err, errDone) {
				t.Fatalf("pass %d: device %d: %v", pass, id, err)
			}
		}
		if len(active) != rounds {
			t.Fatalf("pass %d: %d rounds in the history, want %d", pass, len(active), rounds)
		}
		for r, ids := range active {
			want := make([]int, devices)
			for _, id := range ids {
				want[id] = 1
			}
			for id := range want {
				if got := requests[id][r+1]; got != want[id] {
					t.Errorf("pass %d: device %d got %d train requests for round %d, want %d", pass, id, got, r+1, want[id])
				}
			}
		}
		var up, down int64
		for _, st := range srv.SessionStats() {
			up += st.BytesUp
			down += st.BytesDown
		}
		if pass == 0 {
			firstUp, firstDown = up, down
		} else if up != firstUp || down != firstDown {
			t.Errorf("pass %d: wire totals %d up / %d down, pass 0 had %d / %d", pass, up, down, firstUp, firstDown)
		}
	}
}

// TestRegistrationCarriesNoState: registration is Hello → Welcome, and the
// server's replica of a device is its seeded state until it uploads, so
// once registration is complete — round 1's train requests are out — each
// session's uplink meter holds the device's Hello and nothing else: less
// than one container of its architecture.
func TestRegistrationCarriesNoState(t *testing.T) {
	srv, err := NewServer(chaosServerConfig(2, 1, 0, 0, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		runErr <- err
	}()

	archs := []string{"mlp", "lenet-s"}
	sessions := make([]*deviceSession, len(archs))
	conns := make([]net.Conn, len(archs))
	for i, arch := range archs {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		sess, err := register(conn, DeviceConfig{Addr: srv.Addr(), Arch: arch, IOTimeout: 20 * time.Second}.withDefaults())
		if err != nil {
			t.Fatalf("register %s: %v", arch, err)
		}
		_ = conn.SetDeadline(time.Now().Add(time.Minute))
		sessions[i], conns[i] = sess, conn
	}
	for _, conn := range conns {
		readUntil(t, conn, MsgTrainRequest, 1)
	}

	payloads := make([][]byte, len(sessions))
	for _, st := range srv.SessionStats() {
		i := slices.IndexFunc(sessions, func(s *deviceSession) bool { return s.id == st.ID })
		payload, _, err := sessions[i].dev.UploadPayload(sessions[i].cdc)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = payload
		hello := int64(prefixLen + headerLen + len(st.Arch))
		if st.BytesUp != hello || st.BytesUp >= int64(len(payload)) {
			t.Errorf("device %d (%s) sent %d bytes to register, want its %d-byte hello alone (a container is %d)",
				st.ID, st.Arch, st.BytesUp, hello, len(payload))
		}
	}

	for i, sess := range sessions {
		if err := WriteMessage(conns[i], &Message{Type: MsgUpload, Round: 1, DeviceID: sess.id, Payload: payloads[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, conn := range conns {
		readUntil(t, conn, MsgDone, 0)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}
