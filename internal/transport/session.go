package transport

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// This file holds the server's session machinery: the per-device session
// record that outlives any single TCP connection, the reader/writer
// goroutine pair serving whichever connection is currently attached, the
// signed resume tokens that let a reconnecting device re-claim its
// session, and the byte meters that account real wire traffic (frame
// prefixes, registration handshakes and all) per device.

// inboundKind discriminates events flowing into the fleet's upload
// collection (fleet.go).
type inboundKind uint8

const (
	// evMessage carries a protocol message read from a device connection.
	evMessage inboundKind = iota
	// evAttached reports that a resumed connection is now serving the
	// session. pendingRound carries the device's announced unacknowledged
	// upload round (0 = none), so the fleet can decide whether a
	// replay is already on its way. A fresh registration's attach is not
	// announced: rounds start only after every one of them.
	evAttached
	// evDetached reports that the session's connection died.
	evDetached
)

// inbound is one event delivered to the fleet.
type inbound struct {
	id           int
	kind         inboundKind
	msg          *Message
	pendingRound int
}

// meter counts raw bytes crossing a session's connections, cumulatively
// across reconnects. Up is device→server (connection reads), down is
// server→device (connection writes), so the totals include every frame
// prefix, handshake and protocol envelope — the measured-length
// convention the traffic columns report.
type meter struct {
	up, down atomic.Int64
}

// meteredConn counts all bytes read from and written to the wrapped
// connection into its session meter.
type meteredConn struct {
	net.Conn
	m *meter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.up.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.down.Add(int64(n))
	return n, err
}

// chaosConn arms the transport failpoints on an attached connection:
// transport.conn.drop severs it mid-read or mid-write — the session
// layer's resume tokens are what recovers the device — and
// transport.conn.stall delays a read like a network hiccup would.
// Handshake connections are deliberately not wrapped: a drop before a
// device holds its resume token would abort registration, not exercise
// recovery.
type chaosConn struct {
	net.Conn
}

func (c *chaosConn) Read(p []byte) (int, error) {
	if d := chaos.StallFor(chaos.SiteConnStall); d > 0 {
		time.Sleep(d)
	}
	if chaos.Fire(chaos.SiteConnDrop) {
		_ = c.Conn.Close()
		return 0, &chaos.InjectedError{Site: chaos.SiteConnDrop, Op: "conn read"}
	}
	return c.Conn.Read(p)
}

func (c *chaosConn) Write(p []byte) (int, error) {
	if chaos.Fire(chaos.SiteConnDrop) {
		_ = c.Conn.Close()
		return 0, &chaos.InjectedError{Site: chaos.SiteConnDrop, Op: "conn write"}
	}
	return c.Conn.Write(p)
}

// newResumeKey draws the per-run HMAC key for resume tokens.
func newResumeKey() ([]byte, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("transport: resume key: %w", err)
	}
	return key, nil
}

// resumeToken signs a device id with the server's per-run key. The token
// is constant for a device within one run and worthless across runs.
func resumeToken(key []byte, id int) []byte {
	mac := hmac.New(sha256.New, key)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(id))
	mac.Write(buf[:])
	return mac.Sum(nil)
}

// checkResumeToken verifies a presented token against the key and id.
func checkResumeToken(key []byte, id int, token []byte) bool {
	return hmac.Equal(resumeToken(key, id), token)
}

// connState is the goroutine pair serving one attached connection: a
// reader feeding the fleet's events channel and a writer draining the outbox.
type connState struct {
	conn   net.Conn
	outbox chan *Message
	done   chan struct{} // closed when the writer exits
}

// session is one device's registration with the server, surviving any
// number of connection losses and resumes.
type session struct {
	id    int
	arch  string
	token []byte
	meter meter
	// bufs is the engine whose free list the session's payload buffers
	// circulate through: the reader takes one per upload frame (the
	// engine's absorb gives it back), the writer gives a download's back
	// once it is on the wire.
	bufs *fedzkt.Engine
	// maxPayload is the length of its architecture's container in the
	// run's codec (fedzkt.Server.PayloadSize), taken from the server's own
	// signature, never from the peer's bytes. Container length is a pure
	// function of architecture and codec, so no valid upload is longer, and
	// the reader skips the payload of one that claims to be instead of
	// buffering it. Set before the session is published.
	maxPayload int64

	mu   sync.Mutex
	cs   *connState // nil while detached
	gone bool       // set on shutdown: no further attaches

	// Stats are owned by the fleet (upload counters) and the attach
	// path (resume counter, under mu); read whole via Server.SessionStats
	// after Run returns.
	resumes    int
	absorbed   int
	late       int
	duplicates int
}

// attach installs conn as the session's live connection, detaching any
// previous one, and spawns its reader/writer pair. events receives the
// attach notification (resumed connections only), every message the
// reader produces, and the detach notification when the connection dies.
// ioTimeout bounds each write.
func (s *session) attach(conn net.Conn, resumed bool, pendingRound int, events chan<- inbound, ioTimeout time.Duration) {
	mc := &chaosConn{Conn: &meteredConn{Conn: conn, m: &s.meter}}
	cs := &connState{
		conn:   conn,
		outbox: make(chan *Message, 16),
		done:   make(chan struct{}),
	}
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	if old := s.cs; old != nil {
		// A zombie connection is still attached (e.g. the peer vanished
		// without TCP noticing); the new one supersedes it. Removing it
		// from the session transfers the outbox-close to us.
		_ = old.conn.Close()
		close(old.outbox)
	}
	s.cs = cs
	s.mu.Unlock()

	// Writer: drains the outbox with a per-message deadline. A write
	// failure kills the connection, which unblocks the reader too; what is
	// still queued is then only drained (whoever detaches the connection
	// closes the outbox), because a queued download owns a payload buffer
	// that goes back to the free list written or not.
	go func() {
		defer close(cs.done)
		dead := false
		for m := range cs.outbox {
			if !dead {
				_ = conn.SetWriteDeadline(time.Now().Add(ioTimeout))
				if err := WriteMessage(mc, m); err != nil {
					_ = conn.Close()
					dead = true
				}
			}
			if m.Type == MsgDownload {
				s.bufs.GivePayload(s.arch, m.Payload)
			}
		}
	}()

	// Reader: no read deadline — a healthy device may sit idle for many
	// rounds (quorum deadlines bound the rounds, not the connections).
	// Server.Close and ctx cancellation close the conn to unblock it.
	go func() {
		if resumed {
			events <- inbound{id: s.id, kind: evAttached, pendingRound: pendingRound}
		}
		buffer := s.uploadBuffer
		for {
			_ = conn.SetReadDeadline(time.Time{})
			m := new(Message)
			if err := readFrame(mc, m, buffer); err != nil {
				s.detach(cs)
				events <- inbound{id: s.id, kind: evDetached}
				return
			}
			events <- inbound{id: s.id, kind: evMessage, msg: m}
		}
	}()
}

// uploadBuffer is the reader's payload policy (see readFrame): an upload
// no longer than its architecture's container lands in a buffer from
// the free list; any other payload — nothing else a registered device sends
// carries one — is skipped unbuffered, so the frame reaches the fleet
// without it and an upload is then refused like any other invalid one.
func (s *session) uploadBuffer(m *Message, n int) []byte {
	if m.Type != MsgUpload || int64(n) > s.maxPayload {
		return nil
	}
	if buf := s.bufs.TakePayload(s.arch); cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// detach tears down cs if it is still the session's live connection.
// Whoever removes a connState from the session owns closing its outbox
// (here, attach's supersession, or shutdown), so the close happens
// exactly once.
func (s *session) detach(cs *connState) {
	s.mu.Lock()
	owned := s.cs == cs
	if owned {
		s.cs = nil
	}
	s.mu.Unlock()
	_ = cs.conn.Close()
	if owned {
		close(cs.outbox)
	}
}

// enqueue hands a message to the session's writer. Messages to a
// detached session are dropped (the resume path compensates); a full
// outbox also drops rather than blocking the round.
func (s *session) enqueue(m *Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cs == nil {
		return false
	}
	select {
	case s.cs.outbox <- m:
		return true
	default:
		return false
	}
}

// shutdown closes the session's writer (after its queue drains) and
// forbids further attaches. It returns the writer's done channel, or nil
// if the session was already detached.
func (s *session) shutdown() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gone = true
	if s.cs == nil {
		return nil
	}
	cs := s.cs
	s.cs = nil
	close(cs.outbox)
	return cs.done
}

// count increments one of the session's stat counters under its lock
// (stats may be snapshot concurrently by Server.SessionStats).
func (s *session) count(field *int) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

// SessionStats is the per-device observability record the server exposes
// after a run: how often the device resumed and what happened to its
// uploads.
type SessionStats struct {
	// ID is the device id.
	ID int
	// Arch is the architecture the device registered with.
	Arch string
	// Resumes counts successful session resumes after disconnects.
	Resumes int
	// Absorbed counts fresh current-round uploads absorbed.
	Absorbed int
	// Late counts stale uploads absorbed within the staleness bound.
	Late int
	// Duplicates counts replayed uploads discarded because their round
	// was already absorbed (the exactly-once guarantee in action).
	Duplicates int
	// BytesUp and BytesDown are the measured wire totals across all of
	// the session's connections, frame overhead included.
	BytesUp, BytesDown int64
}

// shardsFor partitions ds across k devices under the named regime, in the
// vocabulary of partition.ByRegime that the experiment runner also uses.
// The vocabulary is all the two share: each seeds its own partition rng, so
// equal configs name equal regimes, not equal shards.
func shardsFor(ds *data.Dataset, k int, regime string, seed uint64) ([][]int, error) {
	return partition.ByRegime(regime, ds.TrainY, ds.Classes, k, tensor.NewRand(seed+21))
}
