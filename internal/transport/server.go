package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// ServerConfig configures a networked FedZKT server.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:7700"; port 0 picks
	// an ephemeral port, readable via Server.Addr).
	Addr string
	// NumDevices is how many device registrations to wait for before
	// starting round 1.
	NumDevices int
	// Fed is the FedZKT algorithm configuration.
	Fed fedzkt.Config
	// DatasetName picks one of the named synthetic datasets.
	DatasetName string
	// Sizes are the per-class sample counts.
	Sizes data.Sizes
	// Partition selects the data-partition regime in partition.ByRegime's
	// vocabulary: "iid" (the "" default), "quantity:<classes-per-device>"
	// or "dirichlet:<beta>".
	Partition string
	// IOTimeout bounds each active transfer (a registration handshake
	// read, any write) on a device connection. It does NOT bound how long
	// a registered device may sit idle between rounds: idle connections
	// are read without a deadline, so a device that is not sampled for
	// many rounds, or waits out a long server distillation phase, never
	// trips a spurious timeout.
	IOTimeout time.Duration
	// MinUploads is the round quorum: the minimum number of active-device
	// uploads a round needs before the server may distill without the
	// rest. 0 (the default) keeps the strict legacy contract — every
	// active device must upload, and a round that cannot complete within
	// UploadDeadline aborts the run.
	MinUploads int
	// UploadDeadline bounds each round's upload collection. When it
	// expires, the round proceeds if at least MinUploads uploads arrived
	// (quorum mode) and aborts otherwise. 0 defaults to IOTimeout.
	UploadDeadline time.Duration
	// StalenessBound is how many rounds late an upload may arrive and
	// still be absorbed into the next teacher window (via the server's
	// replica-absorb path — the same bounded-staleness contract the
	// pipelined engine defines). 0 drops every late upload; late and
	// dropped uploads are acknowledged either way so devices can clear
	// their replay buffers.
	StalenessBound int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.NumDevices == 0 {
		c.NumDevices = 2
	}
	if c.DatasetName == "" {
		c.DatasetName = "synthmnist"
	}
	if c.Sizes == (data.Sizes{}) {
		c.Sizes = data.DefaultSizes
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 2 * time.Minute
	}
	if c.UploadDeadline == 0 {
		c.UploadDeadline = c.IOTimeout
	}
	return c
}

// Server runs a federation over real network connections: the same
// fedzkt.Server core and round engine as the in-process simulator, with
// the session layer as the engine's fleet (fleet.go). Each device is a
// session that survives connection losses: connections carry a
// reader/writer goroutine pair feeding the fleet's upload collection, and
// a device that reconnects with its resume token re-joins mid-round
// instead of being dropped.
type Server struct {
	cfg    ServerConfig
	core   *fedzkt.Server
	engine *fedzkt.Engine
	fleet  *sessionFleet
	ln     net.Listener
	key    []byte
	shards [][]int

	// events feeds every connection's reader (messages, attach/detach
	// notifications) into the fleet's upload collection.
	events chan inbound
	// regProgress signals each session attach; fatal carries the first
	// registration-phase failure.
	regProgress chan struct{}
	fatal       chan error

	// mu orders registrations: a Hello's replica is registered in the core,
	// and its session appended, under it, so session ids are replica ids in
	// Hello order and no two Hellos touch the core's registry at once.
	mu       sync.Mutex
	sessions []*session
	// attached counts registrations whose session has its connection
	// attached: round 1 may only start once every train request it sends
	// has a writer to land on.
	attached   int
	conns      []net.Conn
	finalStats []SessionStats
	// running is set while Run is in progress and closed once Close is
	// called: the second of Close and Run's return closes the core.
	running, closed bool
}

// NewServer builds the server and starts listening; call Run to serve.
func NewServer(cfg ServerConfig) (srv *Server, err error) {
	cfg = cfg.withDefaults()
	if err := validateFed(cfg.Fed); err != nil {
		return nil, err
	}
	ds, ok := data.ByName(cfg.DatasetName, cfg.Sizes, cfg.Fed.Seed)
	if !ok {
		return nil, fmt.Errorf("transport: unknown dataset %q", cfg.DatasetName)
	}
	core, err := fedzkt.NewServer(cfg.Fed, model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = core.Close()
		}
	}()
	// Deterministic shard assignment from the run seed.
	shards, err := shardsFor(ds, cfg.NumDevices, cfg.Partition, core.Config().Seed)
	if err != nil {
		return nil, err
	}
	key, err := newResumeKey()
	if err != nil {
		return nil, err
	}
	srv = &Server{
		cfg:         cfg,
		core:        core,
		key:         key,
		shards:      shards,
		events:      make(chan inbound, 4*cfg.NumDevices+16),
		regProgress: make(chan struct{}, cfg.NumDevices),
		fatal:       make(chan error, 1),
	}
	srv.fleet = newSessionFleet(srv)
	if srv.engine, err = fedzkt.NewEngine(core, ds, srv.fleet); err != nil {
		return nil, err
	}
	if srv.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addr, err)
	}
	srv.RegisterMetrics(obs.Default())
	return srv, nil
}

// validateFed rejects, naming the field, the fedzkt.Config settings a
// session fleet cannot honour yet, instead of silently ignoring them.
func validateFed(c fedzkt.Config) error {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"PipelineDepth", c.PipelineDepth > 0},
		{"CheckpointDir", c.CheckpointDir != ""},
		{"Resume", c.Resume},
		{"FailureRate", c.FailureRate > 0},
	} {
		if f.set {
			return fmt.Errorf("transport: Fed.%s is not supported over network sessions", f.name)
		}
	}
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener and all device connections and closes the
// core — its spill files and directory and its stores' mappings — at once,
// or, while Run is in progress, when Run returns: besides the round
// engine only a Hello's handler reaches the core, and it registers under
// mu, so a Hello that comes later is refused with MsgError (the closed
// core's Register fails). Idempotent.
func (s *Server) Close() {
	s.hangUp()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if !s.running {
		_ = s.core.Close()
	}
}

// hangUp shuts the listener and all device connections.
func (s *Server) hangUp() {
	_ = s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		_ = c.Close()
	}
}

// SessionStats returns the per-device session statistics: resume counts,
// upload outcomes (absorbed/late/duplicate) and measured wire traffic.
// After Run returns it reports the run-final snapshot.
func (s *Server) SessionStats() []SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalStats != nil {
		return append([]SessionStats(nil), s.finalStats...)
	}
	out := make([]SessionStats, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess.stats())
	}
	return out
}

// PayloadBufferStats reports how the federation's upload and download
// frames got their payload buffers: built, or reused from the engine's
// free list (fedzkt.Engine.PayloadBufferStats).
func (s *Server) PayloadBufferStats() (built, reused int64) { return s.engine.PayloadBufferStats() }

// stats snapshots one session's statistics.
func (s *session) stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		ID: s.id, Arch: s.arch,
		Resumes:  s.resumes,
		Absorbed: s.absorbed, Late: s.late, Duplicates: s.duplicates,
		BytesUp: s.meter.up.Load(), BytesDown: s.meter.down.Load(),
	}
}

// trackConn records a connection for Close.
func (s *Server) trackConn(conn net.Conn) {
	s.mu.Lock()
	s.conns = append(s.conns, conn)
	s.mu.Unlock()
}

// registrationComplete reports whether all NumDevices sessions are
// registered and attached.
func (s *Server) registrationComplete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attached == s.cfg.NumDevices
}

// noteProgress wakes awaitRegistration to re-check (and re-arm its stall
// timer). A full buffer already holds a wake-up, so the send never blocks.
func (s *Server) noteProgress() {
	select {
	case s.regProgress <- struct{}{}:
	default:
	}
}

// reportFatal delivers the first registration-phase failure to Run.
func (s *Server) reportFatal(err error) {
	select {
	case s.fatal <- err:
	default:
	}
}

// Run accepts cfg.NumDevices registrations, runs the federation's rounds
// on the round engine, and returns the per-round history. It closes all
// connections on return; the core stays open for inspection until Close.
// ctx cancellation aborts the registration wait and the rounds, and
// closes the server as Run returns.
func (s *Server) Run(ctx context.Context) (hist fed.History, err error) {
	s.mu.Lock()
	s.running = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.running = false
		if s.closed || ctx.Err() != nil {
			s.closed = true
			if cerr := s.core.Close(); err == nil {
				err = cerr
			}
		}
	}()
	defer s.hangUp()
	stop := context.AfterFunc(ctx, s.hangUp)
	defer stop()

	// Accept loop: runs for the server's whole life, serving both fresh
	// registrations and mid-round session resumes. Each connection gets
	// its own handshake goroutine, so one client that connects and stalls
	// cannot head-of-line block the others.
	go func() {
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			s.trackConn(conn)
			go s.handleConn(conn)
		}
	}()

	if err := s.awaitRegistration(ctx); err != nil {
		return nil, err
	}
	// Whenever the rounds end, a background drainer keeps the events
	// channel flowing so no reader goroutine stays blocked on a send after
	// its connection dies.
	defer func() {
		go func() {
			for range s.events {
			}
		}()
	}()
	s.mu.Lock()
	s.fleet.sessions = append([]*session(nil), s.sessions...)
	s.mu.Unlock()
	hist, err = s.engine.Run(ctx)
	if err != nil {
		return hist, err
	}
	final := s.fleet.shutdown(hist)
	s.mu.Lock()
	s.finalStats = final
	s.mu.Unlock()
	return hist, nil
}

// awaitRegistration blocks until all NumDevices devices are registered,
// a registration fails, registration stalls for IOTimeout with no
// progress, or ctx is cancelled.
func (s *Server) awaitRegistration(ctx context.Context) error {
	timer := time.NewTimer(s.cfg.IOTimeout)
	defer timer.Stop()
	for !s.registrationComplete() {
		select {
		case <-s.regProgress:
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(s.cfg.IOTimeout)
		case err := <-s.fatal:
			return err
		case <-ctx.Done():
			return fmt.Errorf("transport: accept cancelled: %w", ctx.Err())
		case <-timer.C:
			s.mu.Lock()
			n := s.attached
			s.mu.Unlock()
			return fmt.Errorf("transport: registration timed out with %d/%d devices", n, s.cfg.NumDevices)
		}
	}
	return nil
}

// handleConn runs one connection's handshake: a MsgHello registers a new
// device session, a MsgResume re-attaches an existing one. Registration-
// phase failures are fatal to the run (rounds cannot start without all
// devices); failures after registration only drop the offending
// connection.
func (s *Server) handleConn(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(s.cfg.IOTimeout))
	var handshake meter
	mc := &meteredConn{Conn: conn, m: &handshake}
	first, err := ReadMessage(mc)
	if err != nil {
		s.handshakeFail(conn, fmt.Errorf("transport: handshake: %w", err))
		return
	}
	switch first.Type {
	case MsgHello:
		s.handleHello(conn, mc, first)
	case MsgResume:
		s.handleResume(conn, mc, first)
	default:
		s.handshakeFail(conn, fmt.Errorf("transport: expected hello or resume, got %v", first.Type))
	}
}

// handshakeFail closes a connection that failed its handshake, aborting
// the whole run if registration is still incomplete.
func (s *Server) handshakeFail(conn net.Conn, err error) {
	_ = WriteMessage(conn, &Message{Type: MsgError, Reason: err.Error()})
	_ = conn.Close()
	if !s.registrationComplete() {
		s.reportFatal(err)
	}
}

// handleHello performs the registration handshake, Hello → Welcome
// (+assignment+token). The device's replica is registered when the Hello
// arrives, as a virgin slot, as Coordinator.register does in process: its
// content is the seeded state the assignment's ModelSeed gives the device,
// so no state crosses the wire before the device's first upload. An
// unknown architecture is answered with MsgError and no Welcome.
func (s *Server) handleHello(conn net.Conn, mc *meteredConn, hello *Message) {
	cfg := s.cfg
	fedCfg := s.core.Config()

	s.mu.Lock()
	if len(s.sessions) >= cfg.NumDevices {
		s.mu.Unlock()
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: "transport: federation is full"})
		_ = conn.Close()
		return
	}
	id, err := s.core.Register(hello.Arch, nil)
	var maxPayload int
	if err == nil {
		maxPayload, err = s.core.PayloadSize(id)
	}
	if err != nil {
		s.mu.Unlock()
		s.handshakeFail(conn, fmt.Errorf("transport: registering a %q device: %w", hello.Arch, err))
		return
	}
	sess := &session{id: id, arch: hello.Arch, token: resumeToken(s.key, id), bufs: s.engine, maxPayload: int64(maxPayload)}
	s.sessions = append(s.sessions, sess)
	s.mu.Unlock()

	// Fold the Hello's bytes into the session meter and account the rest
	// of the handshake there directly.
	sess.meter.up.Add(mc.m.up.Load())
	sess.meter.down.Add(mc.m.down.Load())
	mc.m = &sess.meter

	fail := func(err error) {
		s.handshakeFail(conn, fmt.Errorf("transport: registration of device %d: %w", id, err))
	}
	assignment, err := EncodeAssignment(&Assignment{
		DatasetName: cfg.DatasetName,
		Sizes:       cfg.Sizes,
		DataSeed:    fedCfg.Seed,
		Indices:     s.shards[id],
		Local:       fedCfg.Local(),
		Rounds:      fedCfg.Rounds,
		ModelSeed:   fed.DeviceSeed(fedCfg.Seed, id),
		StateCodec:  s.core.Codec().Name(),
	})
	if err != nil {
		fail(err)
		return
	}
	if err := WriteMessage(mc, &Message{Type: MsgWelcome, DeviceID: id, Token: sess.token, Payload: assignment}); err != nil {
		fail(err)
		return
	}
	_ = conn.SetDeadline(time.Time{})
	obs.DefaultTracer().Begin("transport", "session_attach").WithTID(id).End()
	// Attach before reporting progress: the rounds start on the last
	// report, and a train request enqueued to a session that is not yet
	// attached would be dropped.
	sess.attach(conn, false, 0, s.events, cfg.IOTimeout)
	s.mu.Lock()
	s.attached++
	s.mu.Unlock()
	s.noteProgress()
}

// handleResume re-attaches a reconnecting device to its session after
// validating the signed resume token. The device's announced pending
// upload round rides along to the fleet, which decides whether the
// current round's train request needs re-sending.
func (s *Server) handleResume(conn net.Conn, mc *meteredConn, resume *Message) {
	id := resume.DeviceID
	s.mu.Lock()
	var sess *session
	if id >= 0 && id < len(s.sessions) {
		sess = s.sessions[id]
	}
	s.mu.Unlock()
	if sess == nil || !checkResumeToken(s.key, id, resume.Token) {
		// An invalid resume is never fatal — the federation's registered
		// sessions are unaffected by a stray or malicious connection.
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: "transport: invalid resume token"})
		_ = conn.Close()
		return
	}
	sess.meter.up.Add(mc.m.up.Load())
	sess.meter.down.Add(mc.m.down.Load())
	mc.m = &sess.meter
	if err := WriteMessage(mc, &Message{Type: MsgResumeAck, DeviceID: id}); err != nil {
		_ = conn.Close()
		return
	}
	sess.mu.Lock()
	sess.resumes++
	sess.mu.Unlock()
	_ = conn.SetDeadline(time.Time{})
	obs.DefaultTracer().Begin("transport", "session_resume").WithTID(id).WithRound(resume.Round).End()
	sess.attach(conn, true, resume.Round, s.events, s.cfg.IOTimeout)
}
