package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
)

// chaosProxy sits between a device and the server, forwarding frames and
// injecting one deterministic disconnect on the first connection: it is cut
// once the device has sent its cutUp-th frame or the server its cutDown-th
// (0 = never). Later connections pass through untouched, so a reconnecting
// device resumes through the same address.
type chaosProxy struct {
	t      *testing.T
	ln     net.Listener
	target string

	mu             sync.Mutex
	cutUp, cutDown int
	first          bool
	conns          []net.Conn
	welcomed       int // device id of the Welcome the proxy forwarded; -1 before
}

func newChaosProxy(t *testing.T, target string, cutUp, cutDown int) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{t: t, ln: ln, target: target, cutUp: cutUp, cutDown: cutDown, first: true, welcomed: -1}
	go p.acceptLoop()
	t.Cleanup(p.Close)
	return p
}

func (p *chaosProxy) Addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) Close() {
	_ = p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		_ = c.Close()
	}
}

// deviceID is the id the server welcomed the proxied device with, or -1.
func (p *chaosProxy) deviceID() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.welcomed
}

// noteFrame records the device id of a server→device Welcome frame.
func (p *chaosProxy) noteFrame(body []byte) {
	if MsgType(body[0]) == MsgWelcome {
		p.mu.Lock()
		p.welcomed = int(int64(binary.BigEndian.Uint64(body[9:])))
		p.mu.Unlock()
	}
}

func (p *chaosProxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, client, server)
		up, down := 0, 0
		if p.first {
			up, down = p.cutUp, p.cutDown
			p.first = false
		}
		p.mu.Unlock()
		go p.pipe(client, server, up, nil)
		go p.pipe(server, client, down, p.noteFrame)
	}
}

// pipe forwards src→dst traffic frame by frame, showing each frame's body
// to seen when it is set; after forwarding cut frames (if cut > 0) it slams
// both legs shut, simulating a device dying mid-round.
func (p *chaosProxy) pipe(src, dst net.Conn, cut int, seen func(body []byte)) {
	defer func() { _ = src.Close(); _ = dst.Close() }()
	frames := 0
	var prefix [4]byte
	for {
		if _, err := io.ReadFull(src, prefix[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(prefix[:])
		if n > DefaultMaxMessage || n < headerLen {
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(src, body); err != nil {
			return
		}
		if seen != nil {
			seen(body)
		}
		if _, err := dst.Write(prefix[:]); err != nil {
			return
		}
		if _, err := dst.Write(body); err != nil {
			return
		}
		frames++
		if cut > 0 && frames >= cut {
			return
		}
	}
}

// chaosServerConfig builds a fast n-device federation with quorum rounds
// and a staleness window for late uploads.
func chaosServerConfig(n, rounds, minUploads, staleness int, uploadDeadline time.Duration) ServerConfig {
	return ServerConfig{
		Addr:        "127.0.0.1:0",
		NumDevices:  n,
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 6, TestPerClass: 2},
		Fed: fedzkt.Config{
			Rounds: rounds, LocalEpochs: 1, DistillIters: 2, StudentSteps: 1,
			DistillBatch: 8, BatchSize: 4, ZDim: 8,
			DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9, Seed: 7,
		},
		IOTimeout:      30 * time.Second,
		MinUploads:     minUploads,
		UploadDeadline: uploadDeadline,
		StalenessBound: staleness,
	}
}

// TestChaosQuorumResume is the acceptance chaos scenario: 8 devices over
// loopback, 2 killed mid-round by frame-cut proxies (one permanently dead,
// one reconnecting with its resume token), plus a third cut after its
// upload so its replay exercises the exactly-once dedup. All rounds must
// complete on a quorum, the resumed devices keep their ids, and the
// history books absorbed/late/dropped per round.
func TestChaosQuorumResume(t *testing.T) {
	const (
		devices = 8
		rounds  = 3
		quorum  = 6
	)
	srv, err := NewServer(chaosServerConfig(devices, rounds, quorum, 2, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	// A device's frames to the server are its hello, then its uploads.
	// Device 'perm' uploads round 1 (2nd frame) and dies for good (no
	// reconnect). Device 'rejoin' is cut right after registration — when
	// the server's first frame to it, the Welcome, has passed — so it
	// resumes and picks up round 1's train request via the attach-resend
	// path. Device 'replay' is cut right after its round-1 upload passes,
	// so its ack is (likely) lost and the resume replays an
	// already-absorbed round — which must absorb exactly once either way.
	permProxy := newChaosProxy(t, srv.Addr(), 2, 0)
	rejoinProxy := newChaosProxy(t, srv.Addr(), 0, 1)
	replayProxy := newChaosProxy(t, srv.Addr(), 2, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, devices)
	run := func(i int, addr string, reconnect bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = RunDevice(ctx, DeviceConfig{
				Addr: addr, Arch: "mlp", IOTimeout: 20 * time.Second,
				Reconnect: reconnect, ReconnectBase: 50 * time.Millisecond,
			})
		}()
	}
	run(0, permProxy.Addr(), false)
	run(1, rejoinProxy.Addr(), true)
	run(2, replayProxy.Addr(), true)
	for i := 3; i < devices; i++ {
		run(i, srv.Addr(), true)
	}

	hist, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(hist) != rounds {
		t.Fatalf("history length %d, want %d", len(hist), rounds)
	}

	// The permanently dead device must error out; everyone else finishes.
	if errs[0] == nil {
		t.Error("permanently dead device reported success")
	}
	for i := 1; i < devices; i++ {
		if errs[i] != nil {
			t.Errorf("device %d: %v", i, errs[i])
		}
	}

	// Quorum held every round, and the books balance: every active device
	// either had a fresh upload absorbed or is listed as dropped.
	for _, m := range hist {
		if m.Absorbed < quorum {
			t.Errorf("round %d: %d fresh uploads, quorum %d", m.Round, m.Absorbed, quorum)
		}
		if m.Absorbed+len(m.Dropped) != len(m.Active) {
			t.Errorf("round %d: absorbed %d + dropped %d != active %d",
				m.Round, m.Absorbed, len(m.Dropped), len(m.Active))
		}
	}

	stats := srv.SessionStats()
	if len(stats) != devices {
		t.Fatalf("session stats for %d devices, want %d", len(stats), devices)
	}
	resumes := 0
	for _, st := range stats {
		resumes += st.Resumes
		// Exactly-once: a device can have at most one absorb per round.
		if st.Absorbed+st.Late > rounds {
			t.Errorf("device %d: %d absorbs across %d rounds", st.ID, st.Absorbed+st.Late, rounds)
		}
	}
	if resumes < 2 {
		t.Errorf("total resumes %d, want >= 2 (the two reconnecting devices)", resumes)
	}
	if id := rejoinProxy.deviceID(); id < 0 || id >= devices || stats[id].Resumes < 1 {
		t.Errorf("device 'rejoin' (id %d) did not resume after its cut", id)
	}

	// Every absorb in the history is attributed to a session and vice
	// versa, and the measured traffic totals agree between the two views.
	var histAbsorbed, histLate, statAbsorbed, statLate int
	var histUp, histDown, statUp, statDown int64
	for _, m := range hist {
		histAbsorbed += m.Absorbed
		histLate += m.LateAbsorbed
		histUp += m.BytesUp
		histDown += m.BytesDown
	}
	for _, st := range stats {
		statAbsorbed += st.Absorbed
		statLate += st.Late
		statUp += st.BytesUp
		statDown += st.BytesDown
	}
	if histAbsorbed != statAbsorbed || histLate != statLate {
		t.Errorf("absorb accounting mismatch: history %d/%d vs sessions %d/%d",
			histAbsorbed, histLate, statAbsorbed, statLate)
	}
	if histUp != statUp || histDown != statDown {
		t.Errorf("traffic accounting mismatch: history %d/%d vs sessions %d/%d",
			histUp, histDown, statUp, statDown)
	}
}

// TestIdleDeviceSurvivesIOTimeout pins the idle-wait bugfix: a device
// that is not sent a train request for much longer than its IOTimeout
// (not sampled, or a long server distillation phase) must keep its
// session alive instead of dying of a spurious read timeout.
func TestIdleDeviceSurvivesIOTimeout(t *testing.T) {
	const ioTimeout = 250 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			if _, err := expect(conn, MsgHello); err != nil {
				return err
			}
			asn, err := EncodeAssignment(&Assignment{
				DatasetName: "synthmnist",
				Sizes:       data.Sizes{TrainPerClass: 4, TestPerClass: 2},
				DataSeed:    3,
				Indices:     []int{0, 1, 2, 3},
				Local:       fed.LocalConfig{Epochs: 1, BatchSize: 4, LR: 0.05},
				Rounds:      1,
				ModelSeed:   1003,
			})
			if err != nil {
				return err
			}
			if err := WriteMessage(conn, &Message{Type: MsgWelcome, DeviceID: 0, Token: []byte{1}, Payload: asn}); err != nil {
				return err
			}
			// Idle far past the device's IOTimeout before the round starts.
			time.Sleep(4 * ioTimeout)
			if err := WriteMessage(conn, &Message{Type: MsgTrainRequest, Round: 1, DeviceID: 0}); err != nil {
				return err
			}
			up, err := expect(conn, MsgUpload)
			if err != nil {
				return fmt.Errorf("after idle gap: %w", err)
			}
			if up.Round != 1 {
				return fmt.Errorf("upload round %d, want 1", up.Round)
			}
			if err := WriteMessage(conn, &Message{Type: MsgUploadAck, Round: 1, DeviceID: 0}); err != nil {
				return err
			}
			return WriteMessage(conn, &Message{Type: MsgDone, DeviceID: 0})
		}()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := RunDevice(ctx, DeviceConfig{
		Addr: ln.Addr().String(), Arch: "mlp", IOTimeout: ioTimeout,
	}); err != nil {
		t.Fatalf("idle device died: %v", err)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("test server: %v", err)
	}
}

// manualDevice dials and registers a protocol-level device the test
// drives by hand. The returned connection carries a generous deadline so
// a protocol bug fails the test instead of hanging it.
func manualDevice(t *testing.T, addr string) (*deviceSession, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := register(conn, DeviceConfig{Addr: addr, Arch: "mlp", IOTimeout: 20 * time.Second}.withDefaults())
	if err != nil {
		_ = conn.Close()
		t.Fatalf("manual register: %v", err)
	}
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	return sess, conn
}

// readUntil keeps reading until a message of the wanted type (and round,
// if > 0) arrives, ignoring everything else.
func readUntil(t *testing.T, conn net.Conn, want MsgType, round int) *Message {
	t.Helper()
	for {
		m, err := ReadMessage(conn)
		if err != nil {
			t.Fatalf("waiting for %v (round %d): %v", want, round, err)
		}
		if m.Type == want && (round == 0 || m.Round == round) {
			return m
		}
	}
}

// TestResumeReplayAbsorbedOnce pins the exactly-once replay contract
// deterministically: a device uploads, disconnects, resumes with its
// token, and replays the same upload (as it would after losing the ack).
// The server must acknowledge the replay but absorb it only once.
func TestResumeReplayAbsorbedOnce(t *testing.T) {
	srv, err := NewServer(chaosServerConfig(2, 1, 0, 0, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	histCh := make(chan fed.History, 1)
	errCh := make(chan error, 1)
	go func() {
		h, err := srv.Run(ctx)
		histCh <- h
		errCh <- err
	}()

	a, connA := manualDevice(t, srv.Addr())
	b, connB := manualDevice(t, srv.Addr())
	defer connA.Close()

	readUntil(t, connA, MsgTrainRequest, 1)
	readUntil(t, connB, MsgTrainRequest, 1)

	// B uploads round 1 and gets the ack...
	payload, _, err := b.dev.UploadPayload(b.cdc)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(connB, &Message{Type: MsgUpload, Round: 1, DeviceID: b.id, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	readUntil(t, connB, MsgUploadAck, 1)

	// ...then drops the connection and resumes with its token, replaying
	// the upload as if the ack had been lost.
	_ = connB.Close()
	connB2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer connB2.Close()
	_ = connB2.SetDeadline(time.Now().Add(60 * time.Second))
	if err := WriteMessage(connB2, &Message{Type: MsgResume, DeviceID: b.id, Token: b.token, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := expect(connB2, MsgResumeAck); err != nil {
		t.Fatalf("resume rejected: %v", err)
	}
	if err := WriteMessage(connB2, &Message{Type: MsgUpload, Round: 1, DeviceID: b.id, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	readUntil(t, connB2, MsgUploadAck, 1) // replay acked so the buffer clears

	// Only now does A upload, so the replay was processed mid-collection.
	payloadA, _, err := a.dev.UploadPayload(a.cdc)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(connA, &Message{Type: MsgUpload, Round: 1, DeviceID: a.id, Payload: payloadA}); err != nil {
		t.Fatal(err)
	}
	readUntil(t, connA, MsgDone, 0)
	readUntil(t, connB2, MsgDone, 0)

	hist := <-histCh
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(hist) != 1 {
		t.Fatalf("history length %d, want 1", len(hist))
	}
	if hist[0].Absorbed != 2 {
		t.Errorf("absorbed %d, want 2 (replay must not double-absorb)", hist[0].Absorbed)
	}
	if hist[0].DroppedUploads != 1 {
		t.Errorf("dropped uploads %d, want 1 (the replayed duplicate)", hist[0].DroppedUploads)
	}
	for _, st := range srv.SessionStats() {
		if st.ID == b.id {
			if st.Resumes != 1 {
				t.Errorf("device %d resumes %d, want 1", st.ID, st.Resumes)
			}
			if st.Duplicates != 1 || st.Absorbed != 1 {
				t.Errorf("device %d absorbed=%d duplicates=%d, want 1/1", st.ID, st.Absorbed, st.Duplicates)
			}
		}
	}
}

// lateUploadRun drives the staleness scenario: device B withholds its
// round-1 upload until round 2 is underway, so it arrives one round
// stale, with B's fresh round-2 upload right behind it in the same
// collection window. The caller chooses the staleness bound and asserts
// on the returned history, session stats and the number of round-2
// downloads B was sent.
func lateUploadRun(t *testing.T, staleness int) (fed.History, []SessionStats, int) {
	t.Helper()
	srv, err := NewServer(chaosServerConfig(2, 2, 1, staleness, 1500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	histCh := make(chan fed.History, 1)
	errCh := make(chan error, 1)
	go func() {
		h, err := srv.Run(ctx)
		histCh <- h
		errCh <- err
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // device A: a normal healthy participant
		defer wg.Done()
		if _, _, err := RunDevice(ctx, DeviceConfig{Addr: srv.Addr(), Arch: "mlp", IOTimeout: 20 * time.Second}); err != nil {
			t.Errorf("device A: %v", err)
		}
	}()

	b, connB := manualDevice(t, srv.Addr())
	defer connB.Close()
	readUntil(t, connB, MsgTrainRequest, 1)
	payload, _, err := b.dev.UploadPayload(b.cdc)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the round-1 upload until round 2's train request proves round 1
	// closed without us, then send it one round stale and the round-2
	// upload after it.
	readUntil(t, connB, MsgTrainRequest, 2)
	for _, round := range []int{1, 2} {
		if err := WriteMessage(connB, &Message{Type: MsgUpload, Round: round, DeviceID: b.id, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	acked, downloads := 0, 0
	for done := false; !done; {
		m, err := ReadMessage(connB)
		if err != nil {
			t.Fatalf("device B waiting for done: %v", err)
		}
		switch {
		case m.Type == MsgUploadAck:
			acked++ // acked even when dropped
		case m.Type == MsgDownload && m.Round == 2:
			downloads++
		case m.Type == MsgDone:
			done = true
		}
	}
	if acked != 2 {
		t.Errorf("device B got %d upload acks, want 2", acked)
	}

	hist := <-histCh
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if len(hist) != 2 {
		t.Fatalf("history length %d, want 2", len(hist))
	}
	if len(hist[0].Dropped) != 1 {
		t.Fatalf("round 1 dropped %v, want the withholding device", hist[0].Dropped)
	}
	return hist, srv.SessionStats(), downloads
}

// TestLateUploadWithinStalenessBound: a one-round-stale upload absorbs
// into the next teacher window when StalenessBound allows it, and the
// device that got a late and a fresh upload absorbed in one round is still
// sent its replica once.
func TestLateUploadWithinStalenessBound(t *testing.T) {
	hist, stats, downloads := lateUploadRun(t, 1)
	if hist[1].LateAbsorbed != 1 {
		t.Errorf("round 2 late-absorbed %d, want 1", hist[1].LateAbsorbed)
	}
	late := 0
	for _, st := range stats {
		late += st.Late
	}
	if late != 1 {
		t.Errorf("session late count %d, want 1", late)
	}
	if downloads != 1 {
		t.Errorf("device B was sent %d round-2 downloads, want 1", downloads)
	}
}

// TestLateUploadBeyondStalenessBound: with StalenessBound 0 the same
// stale upload is acknowledged but dropped, never absorbed.
func TestLateUploadBeyondStalenessBound(t *testing.T) {
	hist, stats, downloads := lateUploadRun(t, 0)
	if hist[1].LateAbsorbed != 0 {
		t.Errorf("round 2 late-absorbed %d, want 0", hist[1].LateAbsorbed)
	}
	if hist[1].DroppedUploads < 1 {
		t.Errorf("round 2 dropped uploads %d, want >= 1", hist[1].DroppedUploads)
	}
	for _, st := range stats {
		if st.Late != 0 {
			t.Errorf("device %d late count %d, want 0", st.ID, st.Late)
		}
	}
	if downloads != 1 {
		t.Errorf("device B was sent %d round-2 downloads, want 1", downloads)
	}
}

// TestInvalidResumeRejected: a stray connection presenting a bogus resume
// token is refused without disturbing the registered federation.
func TestInvalidResumeRejected(t *testing.T) {
	srv, err := NewServer(chaosServerConfig(1, 1, 0, 0, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		errCh <- err
	}()
	devDone := make(chan error, 1)
	go func() {
		_, _, err := RunDevice(ctx, DeviceConfig{Addr: srv.Addr(), Arch: "mlp", IOTimeout: 20 * time.Second})
		devDone <- err
	}()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := WriteMessage(conn, &Message{Type: MsgResume, DeviceID: 0, Token: []byte("forged")}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if reply.Type != MsgError {
		t.Fatalf("forged resume got %v, want %v", reply.Type, MsgError)
	}

	if err := <-devDone; err != nil {
		t.Errorf("healthy device: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Errorf("server: %v", err)
	}
}

// TestRegistrationNotBlockedByStalledConn pins the registration
// head-of-line fix: a client that connects first and never speaks must
// not delay or doom the real devices' registration.
func TestRegistrationNotBlockedByStalledConn(t *testing.T) {
	srv, err := NewServer(chaosServerConfig(2, 1, 0, 0, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The stalled connection arrives before any real device.
	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := RunDevice(ctx, DeviceConfig{Addr: srv.Addr(), Arch: "mlp", IOTimeout: 20 * time.Second}); err != nil {
				t.Errorf("device: %v", err)
			}
		}()
	}
	hist, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(hist) != 1 {
		t.Fatalf("history length %d, want 1", len(hist))
	}
}

// TestMeteredConnCountsWireBytes: the session meters count every byte on
// the wire — the 4-byte frame prefix included — not just payloads.
func TestMeteredConnCountsWireBytes(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	var m meter
	mc := &meteredConn{Conn: server, m: &m}

	msg := &Message{Type: MsgUpload, Round: 3, DeviceID: 1, Payload: []byte("0123456789")}
	writeErr := make(chan error, 1)
	go func() { writeErr <- WriteMessage(mc, msg) }()

	var prefix [4]byte
	if _, err := io.ReadFull(client, prefix[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.BigEndian.Uint32(prefix[:]))
	if _, err := io.ReadFull(client, body); err != nil {
		t.Fatal(err)
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	wantDown := int64(4 + len(body))
	if got := m.down.Load(); got != wantDown {
		t.Errorf("down meter %d, want %d (prefix + body)", got, wantDown)
	}

	go func() {
		_, _ = client.Write(prefix[:])
		_, _ = client.Write(body)
	}()
	if _, err := ReadMessage(mc); err != nil {
		t.Fatal(err)
	}
	if got := m.up.Load(); got != wantDown {
		t.Errorf("up meter %d, want %d (prefix + body)", got, wantDown)
	}
}

// TestShardsForRegimes: the transport honours the configured partition
// regime with the experiment runner's vocabulary.
func TestShardsForRegimes(t *testing.T) {
	ds, ok := data.ByName("synthmnist", data.Sizes{TrainPerClass: 6, TestPerClass: 2}, 1)
	if !ok {
		t.Fatal("synthmnist missing")
	}
	const k = 4
	for _, regime := range []string{"", "iid", "quantity:2", "dirichlet:0.5"} {
		shards, err := shardsFor(ds, k, regime, 7)
		if err != nil {
			t.Fatalf("regime %q: %v", regime, err)
		}
		if len(shards) != k {
			t.Fatalf("regime %q: %d shards, want %d", regime, len(shards), k)
		}
		total := 0
		for _, sh := range shards {
			total += len(sh)
		}
		if total == 0 {
			t.Fatalf("regime %q: empty partition", regime)
		}
	}
	// "" and "iid" must agree exactly (the legacy default is preserved).
	a, _ := shardsFor(ds, k, "", 7)
	b, _ := shardsFor(ds, k, "iid", 7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error(`"" and "iid" regimes disagree`)
	}
	for _, bad := range []string{"quantity:0", "quantity:x", "dirichlet:-1", "dirichlet:", "bogus"} {
		if _, err := shardsFor(ds, k, bad, 7); err == nil {
			t.Errorf("regime %q: want error", bad)
		}
	}
}

// TestChaosFailpointDropAndStall drives a mini federation with the
// internal/chaos failpoints armed: transport.conn.drop severs one
// attached connection early in round 1 (whichever session's I/O draws
// the hit) and transport.conn.stall delays periodic reads. Because
// drops fire only on attached connections (never during a handshake),
// the severed device holds its resume token and must reconnect and
// finish the run; the server's history must be complete.
func TestChaosFailpointDropAndStall(t *testing.T) {
	const (
		devices = 4
		rounds  = 2
		quorum  = 3
	)
	plan, err := chaos.Parse("seed=11;transport.conn.drop=on:10;transport.conn.stall@2=every:9")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Activate(plan)
	t.Cleanup(chaos.Deactivate)

	srv, err := NewServer(chaosServerConfig(devices, rounds, quorum, 1, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, devices)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = RunDevice(ctx, DeviceConfig{
				Addr: srv.Addr(), Arch: "mlp", IOTimeout: 20 * time.Second,
				Reconnect: true, ReconnectBase: 50 * time.Millisecond,
			})
		}(i)
	}
	hist, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(hist) != rounds {
		t.Fatalf("history length %d, want %d", len(hist), rounds)
	}
	for i, e := range errs {
		if e != nil {
			t.Errorf("device %d: %v", i, e)
		}
	}
	if got := plan.Fired(chaos.SiteConnDrop); got != 1 {
		t.Errorf("conn.drop fired %d times, want exactly 1 (on:10)", got)
	}
	resumes := 0
	for _, st := range srv.SessionStats() {
		resumes += st.Resumes
	}
	if resumes < 1 {
		t.Error("no session resumed after the injected drop")
	}
}
