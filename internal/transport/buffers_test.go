package transport

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// This file pins who owns a payload buffer on the session wire path: the
// engine's free list serves a session fleet as it serves an in-process
// one, a buffer is given back exactly once and only after its bytes were
// copied out, and a peer cannot make the server buffer — let alone keep —
// more than its registered container.

// drainFreeList takes every free buffer of arch out of the engine's list.
func drainFreeList(srv *Server, arch string) [][]byte {
	var bufs [][]byte
	for {
		b := srv.engine.TakePayload(arch)
		if b == nil {
			return bufs
		}
		bufs = append(bufs, b[:cap(b)])
	}
}

// assertDistinct fails if two of the buffers share memory: a buffer given
// back twice would be handed to two owners at once.
func assertDistinct(t *testing.T, bufs [][]byte) {
	t.Helper()
	for i, a := range bufs {
		for _, b := range bufs[i+1:] {
			a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
			if a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a)) {
				t.Fatalf("two free buffers overlap (%d bytes at %#x, %d at %#x): one was given back twice", len(a), a0, len(b), b0)
			}
		}
	}
}

// replicaBytes is every server replica in wire form.
func replicaBytes(t *testing.T, srv *Server, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for id := range out {
		b, _, err := srv.core.ReplicaPayload(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = b
	}
	return out
}

// TestSessionRoundAllocCeiling: once two rounds have warmed the buffers
// up, a loopback round allocates less than one container, server and
// devices together — every payload hop lands in a recycled buffer. (Under
// the gob framing the same federation allocated 28 MB a round: about six
// containers per participating device on each end.) The same run pins the
// free list's counters on a session fleet: it never built more buffers
// than payloads were in flight at once, and it did serve by reuse.
func TestSessionRoundAllocCeiling(t *testing.T) {
	const (
		devices = 3
		rounds  = 8
		warmup  = 2
	)
	cfg := chaosServerConfig(devices, rounds, 0, 0, 30*time.Second)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Device 0 reads the process's cumulative allocation at every round
	// summary: the round's work is done by then, on both sides.
	var atSummary []uint64
	var wg sync.WaitGroup
	devErrs := make([]error, devices)
	for i := range devErrs {
		dc := DeviceConfig{Addr: srv.Addr(), Arch: "mlp", IOTimeout: time.Minute}
		if i == 0 {
			dc.OnRoundSummary = func(RoundSummary) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				atSummary = append(atSummary, ms.TotalAlloc)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, devErrs[i] = RunDevice(ctx, dc)
		}()
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
	if len(hist) != rounds || len(atSummary) != rounds {
		t.Fatalf("%d rounds, %d summaries; want %d of each", len(hist), len(atSummary), rounds)
	}

	container := int(srv.fleet.sessions[0].maxPayload)
	perRound := (atSummary[rounds-1] - atSummary[warmup-1]) / (rounds - warmup)
	t.Logf("container %d bytes; %d bytes allocated per warmed-up round of %d devices", container, perRound, devices)
	if perRound >= uint64(container) && !raceEnabled {
		t.Errorf("a warmed-up round allocates %d bytes, want less than one %d-byte container", perRound, container)
	}

	built, reused := srv.PayloadBufferStats()
	// A device has at most one payload in flight: its upload until the
	// absorb, then its download until the writer sent it.
	if built > devices || reused == 0 {
		t.Errorf("free list built %d buffers and reused %d; want ≤ %d built (one payload in flight per device) and reuse", built, reused, devices)
	}
	if want := int64(2 * devices * rounds); built+reused != want {
		t.Errorf("free list served %d payloads, want %d (an upload and a download per device and round)", built+reused, want)
	}
}

// TestPayloadBufferOwnership drives a federation through every way a
// payload buffer changes hands under faults — a refused upload, a
// duplicate, a late upload absorbed beside a fresh one, a resume replay,
// downloads to a connection that is gone — and then checks the free list:
// no buffer was given back twice, and none is still aliased by a replica
// slot or a device model.
func TestPayloadBufferOwnership(t *testing.T) {
	const rounds = 3
	srv, err := NewServer(chaosServerConfig(3, rounds, 1, 1, 1500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var hist fed.History
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		hist, runErr = srv.Run(ctx)
	}()

	// Device C is a healthy participant with a real model.
	var modelC nn.Module
	var errC error
	cDone := make(chan struct{})
	a, connA := manualDevice(t, srv.Addr())
	defer connA.Close()
	b, connB := manualDevice(t, srv.Addr())
	go func() {
		defer close(cDone)
		modelC, _, errC = RunDevice(ctx, DeviceConfig{Addr: srv.Addr(), Arch: "mlp", IOTimeout: 20 * time.Second})
	}()
	valid, _, err := a.dev.UploadPayload(a.cdc)
	if err != nil {
		t.Fatal(err)
	}
	send := func(conn net.Conn, id, round int, payload []byte) {
		t.Helper()
		if err := WriteMessage(conn, &Message{Type: MsgUpload, Round: round, DeviceID: id, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}

	// Round 1: A's first upload is a container of the right length with a
	// broken header (refused, buffered, never recycled), then the real one,
	// then a duplicate of it. B uploads and vanishes before its ack; it
	// resumes and replays.
	readUntil(t, connA, MsgTrainRequest, 1)
	readUntil(t, connB, MsgTrainRequest, 1)
	junk := bytes.Repeat([]byte{0xA5}, len(valid))
	send(connA, a.id, 1, junk)
	readUntil(t, connA, MsgUploadAck, 1)
	send(connA, a.id, 1, valid)
	send(connA, a.id, 1, valid)
	send(connB, b.id, 1, valid)
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
	send(connB2, b.id, 1, valid)

	// Round 2: A withholds its upload until round 3 is open, so it is
	// absorbed late, in the same window as A's fresh round-3 upload. B
	// takes part normally.
	readUntil(t, connB2, MsgTrainRequest, 2)
	send(connB2, b.id, 2, valid)
	readUntil(t, connA, MsgTrainRequest, 3)
	send(connA, a.id, 2, valid)
	send(connA, a.id, 3, valid)

	// Round 3: B uploads and hangs up without reading, so the round's
	// download finds its session detached or its connection dead.
	readUntil(t, connB2, MsgTrainRequest, 3)
	send(connB2, b.id, 3, valid)
	_ = connB2.Close()
	readUntil(t, connA, MsgDone, 0)
	<-done
	<-cDone
	if runErr != nil || errC != nil {
		t.Fatalf("server: %v; device C: %v", runErr, errC)
	}
	if len(hist) != rounds {
		t.Fatalf("history length %d, want %d", len(hist), rounds)
	}
	if hist[2].LateAbsorbed != 1 {
		t.Errorf("round 3 absorbed %d late uploads, want A's round-2 one", hist[2].LateAbsorbed)
	}
	// The duplicate may arrive after its round closed and be booked by the next.
	dropped := 0
	for _, m := range hist {
		dropped += m.DroppedUploads
	}
	if dropped < 2 {
		t.Errorf("%d uploads dropped, want at least the refused one and the duplicate", dropped)
	}

	free := drainFreeList(srv, "mlp")
	if len(free) == 0 {
		t.Fatal("the free list is empty after a federation of uploads and downloads")
	}
	assertDistinct(t, free)

	// Nothing at rest aliases a buffer that was given back.
	before := replicaBytes(t, srv, 3)
	stateC, err := codec.Encode(a.cdc, nn.CaptureState(modelC))
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range free {
		for i := range buf {
			buf[i] ^= 0xFF
		}
	}
	for id, was := range before {
		if now := replicaBytes(t, srv, 3)[id]; !bytes.Equal(was, now) {
			t.Errorf("replica %d changed when the free buffers were overwritten", id)
		}
	}
	if now, _ := codec.Encode(a.cdc, nn.CaptureState(modelC)); !bytes.Equal(stateC, now) {
		t.Error("device C's model changed when the server's free buffers were overwritten")
	}
}

// TestDetachGivesBackQueuedDownloads: downloads still queued when their
// connection dies are drained, not written, and each buffer goes back to
// the free list exactly once.
func TestDetachGivesBackQueuedDownloads(t *testing.T) {
	srv, err := NewServer(chaosServerConfig(1, 1, 0, 0, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const queued = 4
	client, server := net.Pipe() // nothing ever reads client: the first write blocks
	sess := &session{id: 0, arch: "mlp", bufs: srv.engine}
	events := make(chan inbound, 4)
	sess.attach(server, false, 0, events, time.Minute)
	sess.mu.Lock()
	writerDone := sess.cs.done
	sess.mu.Unlock()
	for i := 0; i < queued; i++ {
		if !sess.enqueue(&Message{Type: MsgDownload, Round: 1, Payload: make([]byte, 1024)}) {
			t.Fatalf("download %d refused by an attached session", i)
		}
	}
	sess.enqueue(&Message{Type: MsgRoundSummary, Round: 1, Payload: make([]byte, roundSummaryLen)})
	_ = client.Close() // the blocked write fails, with the rest still queued
	select {
	case <-writerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the writer did not exit after its connection died")
	}
	if ev := <-events; ev.kind != evDetached {
		t.Fatalf("event %v, want the detach", ev.kind)
	}
	// A frame to the detached session is refused, and Deliver gives its
	// buffer back at once.
	srv.fleet.sessions = []*session{sess}
	if err := srv.fleet.Deliver(1, 0, fedzkt.Payload{Enc: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	free := drainFreeList(srv, "mlp")
	if len(free) != queued+1 {
		t.Errorf("%d buffers came back, want the %d queued downloads and the refused one (the summary's is not the list's)", len(free), queued)
	}
	assertDistinct(t, free)
}

// TestReplayAfterNextEncodeIsIntact: the device stages uploads in two
// buffers alternately, so encoding round r+1 never writes the bytes a
// resume would replay for round r — even when r+1's upload then never
// becomes the replay payload.
func TestReplayAfterNextEncodeIsIntact(t *testing.T) {
	m := model.MustBuild("mlp", model.Shape{C: 1, H: 8, W: 8}, 4, tensor.NewRand(1))
	cdc, err := codec.Get("")
	if err != nil {
		t.Fatal(err)
	}
	dev := &deviceSession{
		cfg: DeviceConfig{IOTimeout: 10 * time.Second}.withDefaults(),
		id:  0, token: []byte("token"), m: m, dev: fed.NewDevice(0, "mlp", m, nil), cdc: cdc,
	}

	if err := dev.stageUpload(1); err != nil {
		t.Fatal(err)
	}
	round1 := dev.pending
	want := bytes.Clone(round1.payload)
	// Train, so round 2's state differs, and encode it.
	for _, t := range nn.CaptureState(m) {
		t.Data()[0] += 1
	}
	if err := dev.stageUpload(2); err != nil {
		t.Fatal(err)
	}
	if dev.pending.round != 2 || bytes.Equal(dev.pending.payload, want) {
		t.Fatalf("round 2 was not staged as the replay payload: %+v", dev.pending.round)
	}
	if !bytes.Equal(round1.payload, want) {
		t.Fatal("encoding round 2 overwrote round 1's replay bytes")
	}

	// Round 2's upload is lost before it became the replay payload (its
	// encode failed half-way, say): the resume must replay round 1 intact.
	dev.pending = round1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dev.cfg.Addr = ln.Addr().String()
	replayed := make(chan *Message, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := expect(c, MsgResume); err != nil {
			return
		}
		if err := WriteMessage(c, &Message{Type: MsgResumeAck, DeviceID: dev.id}); err != nil {
			return
		}
		if m, err := expect(c, MsgUpload); err == nil {
			replayed <- m
		}
	}()
	c, err := dev.resumeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case m := <-replayed:
		if m.Round != 1 || !bytes.Equal(m.Payload, want) {
			t.Errorf("the resume replayed round %d with altered bytes", m.Round)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no replay arrived")
	}
}

// TestOversizedUploadRefusedUnbuffered: a registered session that claims
// an upload a mebibyte longer than its container has it skipped on the
// wire — no buffer is taken for it, let alone recycled — and the round
// books a dropped upload and carries on.
func TestOversizedUploadRefusedUnbuffered(t *testing.T) {
	srv, err := NewServer(chaosServerConfig(1, 1, 0, 0, 20*time.Second))
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
	dev, conn := manualDevice(t, srv.Addr())
	defer conn.Close()
	valid, _, err := dev.dev.UploadPayload(dev.cdc)
	if err != nil {
		t.Fatal(err)
	}
	readUntil(t, conn, MsgTrainRequest, 1)

	junk := append(bytes.Clone(valid), make([]byte, 1<<20)...)
	if err := WriteMessage(conn, &Message{Type: MsgUpload, Round: 1, DeviceID: dev.id, Payload: junk}); err != nil {
		t.Fatal(err)
	}
	readUntil(t, conn, MsgUploadAck, 1) // acknowledged, like every refused upload
	if built, reused := srv.PayloadBufferStats(); built+reused != 0 {
		t.Errorf("the oversized upload took a payload buffer (%d built, %d reused)", built, reused)
	}

	if err := WriteMessage(conn, &Message{Type: MsgUpload, Round: 1, DeviceID: dev.id, Payload: valid}); err != nil {
		t.Fatal(err)
	}
	readUntil(t, conn, MsgDone, 0)
	<-done
	if runErr != nil {
		t.Fatalf("server: %v", runErr)
	}
	if len(hist) != 1 || hist[0].DroppedUploads != 1 || hist[0].Absorbed != 1 {
		t.Fatalf("history %+v: want one round with the junk dropped and the real upload absorbed", hist)
	}
	free := drainFreeList(srv, "mlp")
	total := 0
	for _, b := range free {
		total += cap(b)
	}
	if len(free) != 1 || total != len(valid) {
		t.Errorf("free list holds %d buffers of %d bytes, want the one %d-byte container", len(free), total, len(valid))
	}
}

// TestEmptyAndTruncatedUploadsRefused: an upload frame with no payload and
// one cut short of its container are each acknowledged, refused and booked
// as dropped uploads, never as absorbed ones — an empty payload does not
// read as a state already in its replica, whatever an in-process fleet
// may mark — and the round then absorbs the device's real upload.
func TestEmptyAndTruncatedUploadsRefused(t *testing.T) {
	srv, err := NewServer(chaosServerConfig(1, 1, 0, 0, 20*time.Second))
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
	dev, conn := manualDevice(t, srv.Addr())
	defer conn.Close()
	valid, _, err := dev.dev.UploadPayload(dev.cdc)
	if err != nil {
		t.Fatal(err)
	}
	readUntil(t, conn, MsgTrainRequest, 1)

	for _, junk := range [][]byte{nil, bytes.Clone(valid[:len(valid)/2])} {
		if err := WriteMessage(conn, &Message{Type: MsgUpload, Round: 1, DeviceID: dev.id, Payload: junk}); err != nil {
			t.Fatal(err)
		}
		readUntil(t, conn, MsgUploadAck, 1)
	}
	if err := WriteMessage(conn, &Message{Type: MsgUpload, Round: 1, DeviceID: dev.id, Payload: valid}); err != nil {
		t.Fatal(err)
	}
	readUntil(t, conn, MsgDone, 0)
	<-done
	if runErr != nil {
		t.Fatalf("server: %v", runErr)
	}
	if len(hist) != 1 || hist[0].DroppedUploads != 2 || hist[0].Absorbed != 1 || len(hist[0].Dropped) != 0 {
		t.Fatalf("history %+v: want one round with both junk uploads dropped and the real one absorbed", hist)
	}
}
