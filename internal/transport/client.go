package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// DeviceConfig configures a networked FedZKT device.
type DeviceConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Arch is the on-device architecture this device chooses for itself
	// (the heart of FedZKT: the server adapts, not the device).
	Arch string
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
	// IOTimeout bounds active transfers: every write, and the handshake
	// reads of registration and resume. The idle wait for the next server
	// message is NOT bounded by it — a device that is not sampled for
	// many rounds, or waits out a long server distillation phase, sits on
	// an unbounded read instead of dying of a spurious timeout.
	IOTimeout time.Duration
	// Progress, when non-nil, receives a line per round (for the CLI).
	Progress func(round int, trainLoss float64)
	// OnRoundSummary, when non-nil, receives the server's per-round
	// summary broadcasts.
	OnRoundSummary func(RoundSummary)
	// Reconnect enables the fault-tolerant session loop: when the
	// connection drops, the device redials with jittered exponential
	// backoff, presents its resume token, replays its last
	// unacknowledged upload, and carries on mid-round.
	Reconnect bool
	// MaxRetries bounds consecutive failed reconnect attempts before the
	// device gives up (default 8; the counter resets after a successful
	// resume).
	MaxRetries int
	// ReconnectBase is the initial backoff delay (default 100ms, doubled
	// per consecutive failure, capped at 5s, with ±50% jitter).
	ReconnectBase time.Duration
}

func (c DeviceConfig) withDefaults() DeviceConfig {
	if c.Arch == "" {
		c.Arch = "cnn"
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 5 * time.Minute
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.ReconnectBase == 0 {
		c.ReconnectBase = 100 * time.Millisecond
	}
	return c
}

// errDone signals the server's clean MsgDone shutdown internally.
var errDone = errors.New("transport: done")

// pendingUpload is the device's replay payload: its last upload until the
// server acknowledges it. Replayed on resume, so an upload whose ack was
// lost to a disconnect still reaches the server exactly once (the server
// deduplicates by round). The bytes alias one of the session's two upload
// buffers.
type pendingUpload struct {
	round   int
	payload []byte
}

// deviceSession is the device-side session state that survives
// reconnects: the assignment, the local world built from it, the resume
// token, and the replay buffer.
type deviceSession struct {
	cfg   DeviceConfig
	id    int
	token []byte
	asn   *Assignment
	ds    *data.Dataset
	m     nn.Module
	dev   *fed.Device
	cdc   codec.Codec

	lastTrained int // highest round already trained (dedups re-sent train requests)
	pending     *pendingUpload

	// down is the one buffer every received payload (a download, a round
	// summary) is read into: each is decoded before the next read.
	down []byte
	// up are the two upload buffers, encoded into alternately, so the one
	// being written is never the replay payload: a resume replays intact
	// bytes whatever became of the upload after it. last is the one the
	// latest upload was staged in.
	up   [2][]byte
	last int
}

// downloadBuffer is the device's payload policy (see readFrame): whatever
// the server sends lands in the one download buffer, grown to the largest
// payload seen.
func (s *deviceSession) downloadBuffer(_ *Message, n int) []byte {
	if cap(s.down) < n {
		s.down = make([]byte, n)
	}
	return s.down[:n]
}

// stageUpload encodes the device's state as round's upload into the upload
// buffer the previous upload does not occupy and makes it the replay
// payload.
func (s *deviceSession) stageUpload(round int) error {
	i := 1 - s.last
	enc, err := s.cdc.Append(s.up[i][:0], nn.CaptureState(s.dev.Model))
	if err != nil {
		return fmt.Errorf("transport: device %d upload: %w", s.id, err)
	}
	s.up[i], s.last = enc, i
	s.pending = &pendingUpload{round: round, payload: enc}
	return nil
}

// RunDevice connects to the server, registers, and participates in the
// federated rounds until the server sends MsgDone or ctx is cancelled. It
// returns the device's final model and its shard-local view of the data
// (useful for post-run evaluation by the caller). With cfg.Reconnect set
// it survives connection losses by resuming its session.
func RunDevice(ctx context.Context, cfg DeviceConfig) (nn.Module, *data.Dataset, error) {
	cfg = cfg.withDefaults()
	conn, err := dial(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	sess, err := register(conn, cfg)
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}

	for {
		err := sess.serve(ctx, conn)
		_ = conn.Close()
		switch {
		case errors.Is(err, errDone):
			return sess.m, sess.ds, nil
		case ctx.Err() != nil:
			return sess.m, sess.ds, fmt.Errorf("transport: device cancelled: %w", ctx.Err())
		case !cfg.Reconnect:
			return sess.m, sess.ds, err
		case errors.Is(err, errServerReject):
			// The server refused us explicitly; retrying is pointless.
			return sess.m, sess.ds, err
		}
		conn, err = sess.reconnect(ctx)
		if err != nil {
			return sess.m, sess.ds, err
		}
	}
}

// dial opens one connection attempt.
func dial(ctx context.Context, cfg DeviceConfig) (net.Conn, error) {
	dialer := net.Dialer{Timeout: cfg.DialTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", cfg.Addr, err)
	}
	return conn, nil
}

// register performs the Hello → Welcome handshake and builds the device's
// local world from the assignment. It sends no state: until the device's
// first upload the server's replica of it is a virgin slot, whose content
// is the state the device builds here from the assignment's ModelSeed.
func register(conn net.Conn, cfg DeviceConfig) (*deviceSession, error) {
	// 1. Hello → Welcome: learn the assignment and the resume token.
	_ = conn.SetDeadline(time.Now().Add(cfg.IOTimeout))
	if err := WriteMessage(conn, &Message{Type: MsgHello, Arch: cfg.Arch}); err != nil {
		return nil, err
	}
	welcome, err := expect(conn, MsgWelcome)
	if err != nil {
		return nil, err
	}
	asn, err := DecodeAssignment(welcome.Payload)
	if err != nil {
		return nil, err
	}

	// 2. Reconstruct the local world: dataset (synthetic and seeded, so no
	// bulk data crosses the wire), shard, and model.
	ds, ok := data.ByName(asn.DatasetName, asn.Sizes, asn.DataSeed)
	if !ok {
		return nil, fmt.Errorf("transport: server assigned unknown dataset %q", asn.DatasetName)
	}
	m, err := model.Build(cfg.Arch, model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(asn.ModelSeed))
	if err != nil {
		return nil, err
	}
	dev := fed.NewDevice(welcome.DeviceID, cfg.Arch, m, data.NewSubset(ds, asn.Indices))
	// The round loop is single-goroutine for the device's lifetime, so
	// one step-scoped arena and one task-scoped arena (reset after each
	// round's local update) serve every training round.
	dev.Scratch = ag.NewArena()
	dev.TaskScratch = tensor.NewArena()

	// The server dictates the federation's state codec; every state the
	// device puts on the wire is encoded with it.
	cdc, err := codec.Get(asn.StateCodec)
	if err != nil {
		return nil, fmt.Errorf("transport: server assigned %w", err)
	}

	_ = conn.SetDeadline(time.Time{})
	return &deviceSession{
		cfg: cfg, id: welcome.DeviceID, token: welcome.Token,
		asn: asn, ds: ds, m: m, dev: dev, cdc: cdc,
	}, nil
}

// errServerReject marks an explicit MsgError from the server — a
// terminal condition the reconnect loop must not retry.
var errServerReject = errors.New("transport: server error")

// serve runs the round loop on one connection until it dies, the server
// finishes (errDone), or the server rejects us. Idle waits read without
// a deadline; only writes carry the IO timeout.
func (s *deviceSession) serve(ctx context.Context, conn net.Conn) error {
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()
	writeDeadline := func() { _ = conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout)) }

	var msg Message
	buffer := s.downloadBuffer
	for {
		// Idle wait: deliberately unbounded. A device that is not sampled
		// for longer than any fixed timeout must keep its session alive.
		_ = conn.SetReadDeadline(time.Time{})
		if err := readFrame(conn, &msg, buffer); err != nil {
			return err
		}
		switch msg.Type {
		case MsgTrainRequest:
			if msg.Round <= s.lastTrained {
				// The server re-sends the current round's request on
				// resume when in doubt; training the same round twice
				// would only produce a duplicate upload.
				continue
			}
			rng := fed.LocalRNG(s.asn.DataSeed, msg.Round, s.id)
			loss, err := s.dev.LocalUpdate(s.asn.Local, rng)
			s.dev.TaskScratch.Reset()
			if err != nil {
				writeDeadline()
				_ = WriteMessage(conn, &Message{Type: MsgError, Reason: err.Error()})
				return err
			}
			s.lastTrained = msg.Round
			if s.cfg.Progress != nil {
				s.cfg.Progress(msg.Round, loss)
			}
			if err := s.stageUpload(msg.Round); err != nil {
				return err
			}
			writeDeadline()
			if err := WriteMessage(conn, &Message{Type: MsgUpload, Round: msg.Round, DeviceID: s.id, Payload: s.pending.payload}); err != nil {
				return err
			}
		case MsgUploadAck:
			if s.pending != nil && s.pending.round == msg.Round {
				s.pending = nil
			}
		case MsgDownload:
			if err := s.dev.DownloadPayload(msg.Payload); err != nil {
				return err
			}
		case MsgRoundSummary:
			if s.cfg.OnRoundSummary != nil {
				summary, err := DecodeRoundSummary(msg.Payload)
				if err != nil {
					return err
				}
				s.cfg.OnRoundSummary(summary)
			}
		case MsgDone:
			return errDone
		case MsgError:
			return fmt.Errorf("%w: %s", errServerReject, msg.Reason)
		default:
			return fmt.Errorf("transport: unexpected message %v", msg.Type)
		}
	}
}

// reconnect redials with jittered exponential backoff and resumes the
// session: present the token, then replay the pending unacknowledged
// upload so no trained round is lost to a dropped connection.
func (s *deviceSession) reconnect(ctx context.Context) (net.Conn, error) {
	delay := s.cfg.ReconnectBase
	const maxDelay = 5 * time.Second
	var lastErr error
	for attempt := 0; attempt < s.cfg.MaxRetries; attempt++ {
		// ±50% jitter decorrelates reconnect stampedes after a server
		// blip takes many devices down at once.
		jittered := time.Duration(float64(delay) * (0.5 + rand.Float64()))
		select {
		case <-time.After(jittered):
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: device cancelled: %w", ctx.Err())
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}

		conn, err := s.resumeOnce(ctx)
		if err == nil {
			return conn, nil
		}
		if errors.Is(err, errServerReject) || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: resume failed after %d attempts: %w", s.cfg.MaxRetries, lastErr)
}

// resumeOnce performs one dial + resume handshake + replay.
func (s *deviceSession) resumeOnce(ctx context.Context) (net.Conn, error) {
	conn, err := dial(ctx, s.cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (net.Conn, error) {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(s.cfg.IOTimeout))
	pendingRound := 0
	if s.pending != nil {
		pendingRound = s.pending.round
	}
	if err := WriteMessage(conn, &Message{Type: MsgResume, DeviceID: s.id, Token: s.token, Round: pendingRound}); err != nil {
		return fail(err)
	}
	ack, err := ReadMessage(conn)
	if err != nil {
		return fail(err)
	}
	if ack.Type == MsgError {
		return fail(fmt.Errorf("%w: %s", errServerReject, ack.Reason))
	}
	if ack.Type != MsgResumeAck {
		return fail(fmt.Errorf("transport: expected resume-ack, got %v", ack.Type))
	}
	if s.pending != nil {
		if err := WriteMessage(conn, &Message{Type: MsgUpload, Round: s.pending.round, DeviceID: s.id, Payload: s.pending.payload}); err != nil {
			return fail(err)
		}
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}
