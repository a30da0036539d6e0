package transport

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// sessionFleet is the device side of a networked federation as the round
// engine drives it (fedzkt.Fleet): a local phase is train requests fanned
// out through session outboxes and uploads collected from the events
// channel until a quorum, a download is a frame enqueued to a session,
// and the books are the session meters. It holds no models — devices are
// evaluated at their server replicas — and decides nothing about
// sampling, absorbing or distilling.
type sessionFleet struct {
	srv      *Server
	sessions []*session // fixed once registration completes
	// lastAccepted[id] is the highest round whose upload the fleet has
	// accepted from the device — the dedup line that makes a replayed
	// upload count exactly once.
	lastAccepted []int
	// asked[id] lists, ascending, the rounds the device was sampled in and
	// has not had a later upload accepted for. An upload for any other
	// round is unsolicited.
	asked [][]int
	// prevUp/prevDown are the session meter readings already booked.
	prevUp, prevDown []int64
}

func newSessionFleet(srv *Server) *sessionFleet {
	n := srv.cfg.NumDevices
	return &sessionFleet{srv: srv, lastAccepted: make([]int, n), asked: make([][]int, n),
		prevUp: make([]int64, n), prevDown: make([]int64, n)}
}

// LocalPhase implements fedzkt.Fleet: it asks the active devices to train
// and collects uploads until every one reported, or the upload deadline
// expired with at least a quorum in hand. An upload is accepted only for a
// round its device was sampled in, once, as a container of the device's
// registered architecture: this round's count towards the quorum, an
// earlier round's inside the staleness bound rides along as late. Every
// upload is acknowledged, accepted or not, so devices can clear their
// replay buffers.
func (f *sessionFleet) LocalPhase(ctx context.Context, round int, active []int, m *fed.RoundMetrics) ([]fedzkt.Upload, error) {
	cfg := f.srv.cfg
	isActive := make([]bool, cfg.NumDevices)
	for _, id := range active {
		isActive[id] = true
		f.asked[id] = append(f.asked[id], round)
		// Enqueues to a detached session are dropped; if the device resumes
		// mid-round the attach event below re-sends the request.
		f.sessions[id].enqueue(&Message{Type: MsgTrainRequest, Round: round, DeviceID: id})
	}
	target := len(active)
	quorum := target
	if cfg.MinUploads > 0 && cfg.MinUploads < target {
		quorum = cfg.MinUploads
	}
	fresh := make([][]byte, cfg.NumDevices)
	var uploads []fedzkt.Upload
	got := 0
	deadline := time.NewTimer(cfg.UploadDeadline)
	defer deadline.Stop()
	expired := false
	for got < target && !(expired && got >= quorum) {
		select {
		case ev := <-f.srv.events:
			id, sess := ev.id, f.sessions[ev.id]
			switch {
			case ev.kind == evAttached:
				// A resumed device that has not uploaded for the current
				// round (and is not about to replay it) gets the train
				// request again.
				if isActive[id] && fresh[id] == nil && ev.pendingRound != round {
					sess.enqueue(&Message{Type: MsgTrainRequest, Round: round, DeviceID: id})
				}
			case ev.kind == evDetached:
				// The session stays registered; nothing to do until the
				// device resumes or the round closes without it.
				obs.DefaultTracer().Begin("transport", "session_detach").WithTID(id).WithRound(round).End()
			case ev.msg.Type == MsgUpload:
				up := ev.msg
				asked := slices.Index(f.asked[id], up.Round)
				switch {
				case up.Round <= f.lastAccepted[id]:
					// Replay of a round already accepted (or overtaken).
					m.DroppedUploads++
					sess.count(&sess.duplicates)
				case asked < 0, // never asked to train that round
					round-up.Round > cfg.StalenessBound,
					f.srv.core.CheckPayload(id, up.Payload) != nil:
					m.DroppedUploads++
				default:
					f.lastAccepted[id] = up.Round
					f.asked[id] = f.asked[id][asked+1:]
					if up.Round == round {
						fresh[id] = up.Payload
						got++
						sess.count(&sess.absorbed)
					} else {
						// The next distillation's teacher window sees the
						// device's latest work.
						uploads = append(uploads, fedzkt.Upload{ID: id, Round: up.Round, Payload: fedzkt.Payload{Enc: up.Payload}})
						sess.count(&sess.late)
					}
				}
				sess.enqueue(&Message{Type: MsgUploadAck, Round: up.Round, DeviceID: id})
			}
		case <-deadline.C:
			expired = true
			if got < quorum {
				return nil, fmt.Errorf("transport: round %d: %d/%d uploads within deadline (quorum %d)", round, got, target, quorum)
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: cancelled at round %d: %w", round, ctx.Err())
		}
	}
	for _, id := range active {
		if fresh[id] == nil {
			m.Dropped = append(m.Dropped, id)
			continue
		}
		uploads = append(uploads, fedzkt.Upload{ID: id, Round: round, Payload: fedzkt.Payload{Enc: fresh[id]}})
	}
	return uploads, nil
}

// UploadRejected implements fedzkt.Fleet: uploads are untrusted input, so
// one the server core refuses is dropped and the round goes on.
func (f *sessionFleet) UploadRejected(fedzkt.Upload, error) error { return nil }

// Deliver implements fedzkt.Fleet. A detached session misses the frame;
// its device keeps training from its stale model, as a straggler does.
// The payload's buffer goes back to the engine's free list either way: by
// the session's writer once the frame is on the wire, or here.
func (f *sessionFleet) Deliver(round, id int, p fedzkt.Payload) error {
	sess := f.sessions[id]
	if !sess.enqueue(&Message{Type: MsgDownload, Round: round, DeviceID: id, Payload: p.Enc}) {
		sess.bufs.GivePayload(sess.arch, p.Enc)
	}
	return nil
}

// EvaluateDevices implements fedzkt.Fleet: the models are on the devices.
func (f *sessionFleet) EvaluateDevices([]int) ([]float64, error) { return nil, nil }

// CloseRound implements fedzkt.Fleet: every attached device gets the
// round's summary, and the round books the wire traffic since its
// predecessor (round 1 therefore carries registration).
func (f *sessionFleet) CloseRound(m *fed.RoundMetrics) error {
	summary := EncodeRoundSummary(&RoundSummary{
		Round: m.Round, Absorbed: m.Absorbed, Late: m.LateAbsorbed,
		Dropped: m.DroppedUploads, GlobalAcc: m.GlobalAcc,
	})
	for _, sess := range f.sessions {
		sess.enqueue(&Message{Type: MsgRoundSummary, Round: m.Round, DeviceID: sess.id, Payload: summary})
	}
	f.bookWire(m)
	return nil
}

// bookWire adds to m every byte the session meters counted since the last
// booking. The meters count all bytes on the conns — frame prefixes,
// handshakes, registration and resume traffic included.
func (f *sessionFleet) bookWire(m *fed.RoundMetrics) {
	for id, sess := range f.sessions {
		up, down := sess.meter.up.Load(), sess.meter.down.Load()
		m.BytesUp += up - f.prevUp[id]
		m.BytesDown += down - f.prevDown[id]
		f.prevUp[id], f.prevDown[id] = up, down
	}
}

// shutdown ends a finished federation gracefully: it tells every attached
// device the rounds are over, gives the writers a moment to drain, folds
// the shutdown traffic into the final round so the history's byte totals
// match the session meters exactly, and returns the frozen session stats.
func (f *sessionFleet) shutdown(hist fed.History) []SessionStats {
	dones := make([]chan struct{}, 0, len(f.sessions))
	for _, sess := range f.sessions {
		sess.enqueue(&Message{Type: MsgDone, DeviceID: sess.id})
		if ch := sess.shutdown(); ch != nil {
			dones = append(dones, ch)
		}
	}
	drainDeadline := time.After(2 * time.Second)
drain:
	for _, ch := range dones {
		select {
		case <-ch:
		case <-drainDeadline:
			break drain
		}
	}
	if len(hist) > 0 {
		f.bookWire(&hist[len(hist)-1])
	}
	final := make([]SessionStats, 0, len(f.sessions))
	for _, sess := range f.sessions {
		final = append(final, sess.stats())
	}
	return final
}
