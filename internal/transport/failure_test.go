package transport

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
)

// failureServer builds a 1-device server for failure-injection tests.
func failureServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:        "127.0.0.1:0",
		NumDevices:  1,
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 4, TestPerClass: 2},
		Fed: fedzkt.Config{
			Rounds: 1, LocalEpochs: 1, DistillIters: 2, DistillBatch: 8,
			BatchSize: 4, ZDim: 8, Seed: 1,
		},
		IOTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServerRejectsBogusArchitecture: a device announcing an unknown
// architecture is answered at once with an error naming it — before any
// Welcome, since the replica is registered when the Hello arrives — and
// the run fails with a clear error, not a hang.
func TestServerRejectsBogusArchitecture(t *testing.T) {
	srv := failureServer(t)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WriteMessage(conn, &Message{Type: MsgHello, Arch: "bogus-arch"}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("reading the reply to the hello: %v", err)
	}
	if reply.Type != MsgError || !strings.Contains(reply.Reason, `"bogus-arch"`) {
		t.Fatalf("hello answered with %v %q, want %v naming \"bogus-arch\"", reply.Type, reply.Reason, MsgError)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), `"bogus-arch"`) {
			t.Fatalf("run ended with %v, want an error naming the architecture", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on an unknown architecture")
	}
}

// TestServerHandlesWrongMessageType: a device that skips the handshake
// must produce a protocol error.
func TestServerHandlesWrongMessageType(t *testing.T) {
	srv := failureServer(t)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Message{Type: MsgUpload, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "expected hello") {
			t.Fatalf("err = %v, want protocol error mentioning hello", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on protocol violation")
	}
}

// TestServerTimesOutSilentDevice: a device that connects and goes silent
// must trip the IO deadline rather than stall the federation forever.
func TestServerTimesOutSilentDevice(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr:        "127.0.0.1:0",
		NumDevices:  1,
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 4, TestPerClass: 2},
		Fed:         fedzkt.Config{Rounds: 1, Seed: 1},
		IOTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server completed despite a silent device")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not time out a silent device")
	}
}

// TestDeviceSurvivesServerCrash: if the server disappears mid-session the
// device returns an error instead of hanging.
func TestDeviceSurvivesServerCrash(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the Hello then slam the connection shut.
		_, _ = ReadMessage(conn)
		_ = conn.Close()
		_ = ln.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := RunDevice(ctx, DeviceConfig{Addr: ln.Addr().String(), Arch: "mlp", IOTimeout: 2 * time.Second}); err == nil {
		t.Fatal("device must error when the server vanishes")
	}
}
