package fedzkt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/optim"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Checkpoint framing. Every checkpoint starts with a 4-byte magic and a
// 1-byte format version ahead of the gob body, so a reader rejects
// foreign blobs and version mismatches with a clear error instead of
// failing obscurely somewhere inside gob decoding. Version 2 introduced
// the state-codec payloads (codec containers instead of gob-encoded
// dicts); version 3 adds the server's cross-round optimiser state (global
// SGD momentum, generator Adam moments, both schedule counters) and the
// coordinator's finalised-round history, which is what makes a resumed
// synchronous run replay the uninterrupted trajectory bit for bit.
// Version-1 checkpoints predate the header entirely, so their first
// bytes cannot match the magic and they are reported as unrecognised.
var (
	serverCheckpointMagic      = [4]byte{'F', 'Z', 'S', 'C'}
	coordinatorCheckpointMagic = [4]byte{'F', 'Z', 'C', 'C'}
)

// checkpointVersion is the format version this build writes and reads.
const checkpointVersion = 3

// Byte offsets of the header fields, named in error messages so a
// corrupt file can be inspected at the right position.
const (
	checkpointMagicOffset   = 0
	checkpointVersionOffset = 4
)

// writeCheckpointHeader frames a checkpoint body.
func writeCheckpointHeader(w io.Writer, magic [4]byte) error {
	_, err := w.Write(append(magic[:], checkpointVersion))
	return err
}

// readCheckpointHeader validates a checkpoint's magic and version,
// naming the failing byte offset. The durable file layer wraps these
// errors with the file path (CheckpointFileError).
func readCheckpointHeader(r io.Reader, magic [4]byte, kind string) error {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("fedzkt: reading %s checkpoint header at byte offset %d: %w", kind, checkpointMagicOffset, err)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return fmt.Errorf("fedzkt: not a %s checkpoint (bad magic %q at byte offset %d; pre-versioned checkpoints from before the state-codec format are not readable)", kind, hdr[:4], checkpointMagicOffset)
	}
	if hdr[4] != checkpointVersion {
		return fmt.Errorf("fedzkt: unsupported %s checkpoint version %d at byte offset %d (this build reads version %d)", kind, hdr[4], checkpointVersionOffset, checkpointVersion)
	}
	return nil
}

// checkpoint is the gob body of a server checkpoint: the registered
// architectures, per-device data-size weights, every model's state as a
// self-describing codec container, and the cross-round optimiser state.
type checkpoint struct {
	// Codec records the state codec the server ran with, for
	// inspection; the payloads are self-describing, so loading does not
	// depend on it.
	Codec string
	Archs []string
	// Global and Gen are always dense float64 containers: they are live
	// training state, and exact restoration keeps a resumed trajectory on
	// the saved one.
	Global []byte
	Gen    []byte
	// Replicas hold each device's slot in its resident form — quantised
	// slots are persisted verbatim, so a same-codec reload is bit-exact
	// and costs no re-encode.
	Replicas [][]byte
	// Weights records each device's registered data size.
	Weights []int
	// GlobalOpt and GenOpt (v3) capture the server optimisers' cross-round
	// state: the global SGD's momentum velocity and the generator Adam's
	// moments and step count, plus each one's (possibly decayed) learning
	// rate. Without them a resumed run restarts the optimisers cold and
	// drifts off the saved trajectory.
	GlobalOpt optim.State
	GenOpt    optim.State
	// GlobalSchedStep and GenSchedStep (v3) are the paper schedules' step
	// counters, re-arming the remaining decay milestones on resume.
	GlobalSchedStep int
	GenSchedStep    int
}

// SaveCheckpoint serialises the server's full learned state — global
// model, generator, every device replica, and the optimiser/schedule
// state — so a long federation can be stopped and resumed bit-exactly.
// Replicas are persisted in their slot encoding (the configured state
// codec), behind a versioned header. The configuration is not saved; the
// caller reconstructs the server with NewServer and the same Config
// before loading.
func (s *Server) SaveCheckpoint(w io.Writer) error {
	f64, err := codec.Get(codec.Float64)
	if err != nil {
		return err
	}
	cp := checkpoint{Codec: s.codec.Name()}
	if cp.Global, err = codec.Encode(f64, nn.CaptureState(s.global)); err != nil {
		return fmt.Errorf("fedzkt: checkpoint global: %w", err)
	}
	if cp.Gen, err = codec.Encode(f64, nn.CaptureState(s.gen)); err != nil {
		return fmt.Errorf("fedzkt: checkpoint generator: %w", err)
	}
	cp.GlobalOpt = s.globalOpt.CaptureState()
	cp.GenOpt = s.genOpt.CaptureState()
	cp.GlobalSchedStep = s.globalSched.Step()
	cp.GenSchedStep = s.genSched.Step()
	for _, ref := range s.cohorts.devices {
		b, err := s.cohorts.appendPayload(ref, nil)
		if err != nil {
			return fmt.Errorf("fedzkt: checkpoint replica %d: %w", ref.member.id, err)
		}
		cp.Replicas = append(cp.Replicas, b)
		cp.Archs = append(cp.Archs, ref.cohort.arch)
		cp.Weights = append(cp.Weights, ref.member.weight)
	}
	if err := writeCheckpointHeader(w, serverCheckpointMagic); err != nil {
		return fmt.Errorf("fedzkt: writing checkpoint: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("fedzkt: writing checkpoint: %w", err)
	}
	return nil
}

// checkStateDict validates that src can restore m's state — same entry
// set, same element counts — without mutating anything. nn.LoadState
// copies as it validates, so the all-or-nothing load path runs this
// first and only then commits.
func checkStateDict(m nn.Module, src nn.StateDict, what string) error {
	dst := nn.CaptureState(m)
	if len(dst) != len(src) {
		return fmt.Errorf("fedzkt: checkpoint %s: state dict size mismatch: model has %d entries, checkpoint has %d", what, len(dst), len(src))
	}
	for name, d := range dst {
		s, ok := src[name]
		if !ok {
			return fmt.Errorf("fedzkt: checkpoint %s: state %q missing", what, name)
		}
		if d.Len() != s.Len() {
			return fmt.Errorf("fedzkt: checkpoint %s: state %q length mismatch: %d vs %d", what, name, d.Len(), s.Len())
		}
	}
	return nil
}

// stagedCheckpoint holds everything LoadCheckpoint validated up front,
// so the commit phase only performs operations that were already proven
// well-formed.
type stagedCheckpoint struct {
	global nn.StateDict
	gen    nn.StateDict
	// sigs[i] is the architecture signature replica i's payload was
	// validated against.
	sigs []*archSig
}

// stageCheckpoint validates every part of a decoded server checkpoint
// against the live server without mutating any state: counts, positional
// architecture matches, the buildability of architectures for devices
// not yet registered, every replica payload's container layout, and the
// global/generator state dicts. On success the commit phase cannot fail
// a structural check.
func (s *Server) stageCheckpoint(cp *checkpoint) (*stagedCheckpoint, error) {
	if len(cp.Replicas) != len(cp.Archs) {
		return nil, fmt.Errorf("fedzkt: corrupt checkpoint: %d replicas for %d archs", len(cp.Replicas), len(cp.Archs))
	}
	if cp.Weights != nil && len(cp.Weights) != len(cp.Archs) {
		return nil, fmt.Errorf("fedzkt: corrupt checkpoint: %d weights for %d archs", len(cp.Weights), len(cp.Archs))
	}
	if n := s.cohorts.numDevices(); n > len(cp.Archs) {
		return nil, fmt.Errorf("fedzkt: server has %d devices but checkpoint has %d", n, len(cp.Archs))
	}
	st := &stagedCheckpoint{sigs: make([]*archSig, len(cp.Archs))}
	// freshSigs caches signatures of architectures the server has not
	// seen yet, each proven buildable by constructing one throwaway
	// module (exactly what registration will do again at commit).
	freshSigs := make(map[string]*archSig)
	for i, arch := range cp.Archs {
		if i < s.cohorts.numDevices() {
			if got := s.cohorts.devices[i].cohort.arch; got != arch {
				return nil, fmt.Errorf("fedzkt: device %d architecture mismatch: %s vs checkpointed %s", i, got, arch)
			}
			st.sigs[i] = s.cohorts.devices[i].cohort.sig
		} else {
			sig, ok := s.cohorts.sigs[arch]
			if !ok {
				if sig, ok = freshSigs[arch]; !ok {
					m, err := model.Build(arch, s.in, s.cls, tensor.NewRand(s.cfg.Seed))
					if err != nil {
						return nil, fmt.Errorf("fedzkt: restoring device %d: %w", i, err)
					}
					sig = sigOf(nn.CaptureState(m))
					freshSigs[arch] = sig
				}
			}
			st.sigs[i] = sig
		}
		entries, err := codec.Layout(cp.Replicas[i])
		if err != nil {
			return nil, fmt.Errorf("fedzkt: checkpoint replica %d: %w", i, err)
		}
		if err := st.sigs[i].checkLayout(arch, entries); err != nil {
			return nil, fmt.Errorf("fedzkt: checkpoint replica %d: %w", i, err)
		}
	}
	var err error
	if st.global, err = codec.Decode(cp.Global); err != nil {
		return nil, fmt.Errorf("fedzkt: checkpoint global: %w", err)
	}
	if err := checkStateDict(s.global, st.global, "global"); err != nil {
		return nil, err
	}
	if st.gen, err = codec.Decode(cp.Gen); err != nil {
		return nil, fmt.Errorf("fedzkt: checkpoint generator: %w", err)
	}
	if err := checkStateDict(s.gen, st.gen, "generator"); err != nil {
		return nil, err
	}
	return st, nil
}

// LoadCheckpoint restores a snapshot written by SaveCheckpoint into a
// freshly constructed server. Devices not yet registered are registered
// with their checkpointed architecture and data-size weight;
// already-registered devices must match positionally. Replica payloads
// are self-describing containers, so a checkpoint written under one
// codec loads into a server configured with another: same-codec payloads
// are adopted verbatim (bit-exact), foreign-dtype payloads are
// re-encoded into the configured codec at load so the slots keep its
// memory and accounting invariants (a float64 server re-encodes them
// exactly).
//
// The load is all-or-nothing against structural faults: every count,
// architecture, container layout and state-dict shape is validated
// before the first mutation (stageCheckpoint), and the optimiser
// restores are themselves atomic, so a truncated or corrupt checkpoint
// leaves the server exactly as it was. (Disk I/O failing mid-commit in
// the spill store is the one residual partial-write risk; the durable
// file layer's CRC makes that a crash-then-rollback, not a silent load.)
func (s *Server) LoadCheckpoint(r io.Reader) error {
	if err := readCheckpointHeader(r, serverCheckpointMagic, "server"); err != nil {
		return err
	}
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("fedzkt: reading checkpoint: %w", err)
	}
	st, err := s.stageCheckpoint(&cp)
	if err != nil {
		return err
	}
	// Commit. Optimiser loads first: they validate internally and either
	// fully apply or leave the optimiser untouched, so a malformed
	// optimiser snapshot still aborts with zero server mutations.
	if err := s.globalOpt.LoadState(cp.GlobalOpt); err != nil {
		return fmt.Errorf("fedzkt: checkpoint global optimiser: %w", err)
	}
	if err := s.genOpt.LoadState(cp.GenOpt); err != nil {
		return fmt.Errorf("fedzkt: checkpoint generator optimiser: %w", err)
	}
	s.globalSched.SetStep(cp.GlobalSchedStep)
	s.genSched.SetStep(cp.GenSchedStep)
	// Uploads absorbed before the load belong to a round the checkpoint
	// replaces: they are no round's participants any more.
	s.takeAbsorbed()
	for i := s.cohorts.numDevices(); i < len(cp.Archs); i++ {
		weight := 1
		if cp.Weights != nil {
			weight = cp.Weights[i]
		}
		if _, err := s.RegisterSized(cp.Archs[i], nil, weight); err != nil {
			return fmt.Errorf("fedzkt: restoring device %d: %w", i, err)
		}
	}
	if err := nn.LoadState(s.global, st.global); err != nil {
		return fmt.Errorf("fedzkt: checkpoint global: %w", err)
	}
	if err := nn.LoadState(s.gen, st.gen); err != nil {
		return fmt.Errorf("fedzkt: checkpoint generator: %w", err)
	}
	for i, b := range cp.Replicas {
		if err := s.cohorts.installPayload(s.cohorts.devices[i], b); err != nil {
			return fmt.Errorf("fedzkt: checkpoint replica %d: %w", i, err)
		}
		if cp.Weights != nil {
			s.cohorts.devices[i].member.weight = cp.Weights[i]
		}
	}
	return nil
}

// CheckpointBytes is a convenience wrapper returning the checkpoint as a
// byte slice.
func (s *Server) CheckpointBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// coordinatorCheckpoint is the gob body of a whole-federation checkpoint:
// the server snapshot, the round cursor, and the finalised-round history.
// Device-local state is deliberately not serialised — on load every
// device is reconciled to its server replica, the same slots the
// stale-download path reuses.
type coordinatorCheckpoint struct {
	NextRound int
	// History (v3) holds every finalised round's metrics, so a resumed
	// federation can report (and fingerprint) the whole run, not just the
	// rounds executed after the resume.
	History fed.History
	Server  []byte
}

// SaveCheckpoint serialises the coordinator's resumable state: the server
// checkpoint (global model, generator, every replica, optimiser state),
// the first unfinalised round, and the finalised rounds' metrics, behind
// the versioned coordinator header. After a clean stop the snapshot is an
// exact round boundary: a full-participation synchronous run resumed from
// it replays the uninterrupted trajectory bit for bit. After a
// cancellation it is consistent but approximate: work the in-flight round
// already did is retained in the snapshot — uploads absorbed into
// replicas, and any partial distillation progress in the global model,
// generator and their optimisers — and the resumed Run re-runs that round
// on top of it, so a resumed trajectory is not a bit-exact replay of an
// uninterrupted one. Rolling the server back to the boundary would
// require a full per-round state copy, which this deliberately does not
// pay for.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	var buf bytes.Buffer
	if err := e.server.SaveCheckpoint(&buf); err != nil {
		return err
	}
	cp := coordinatorCheckpoint{
		NextRound: e.nextRound,
		History:   append(fed.History(nil), e.hist...),
		Server:    buf.Bytes(),
	}
	if err := writeCheckpointHeader(w, coordinatorCheckpointMagic); err != nil {
		return fmt.Errorf("fedzkt: writing coordinator checkpoint: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("fedzkt: writing coordinator checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint restores a snapshot written by SaveCheckpoint into a
// coordinator built with the same configuration, dataset and shards. The
// server state is restored bit-exactly; each device then downloads its
// replica state — the server's latest knowledge of it — so a device that
// had local progress in an unfinalised (in-flight) round resumes from the
// last state the server saw instead. A subsequent Run continues from the
// first unfinalised round, replaying the client-sampling stream up to it.
// The load is all-or-nothing: a corrupt server snapshot inside the
// coordinator checkpoint rejects the whole load with the coordinator
// unchanged (see Server.LoadCheckpoint).
func (c *Coordinator) LoadCheckpoint(r io.Reader) error {
	if err := readCheckpointHeader(r, coordinatorCheckpointMagic, "coordinator"); err != nil {
		return err
	}
	var cp coordinatorCheckpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("fedzkt: reading coordinator checkpoint: %w", err)
	}
	if cp.NextRound < 1 {
		return fmt.Errorf("fedzkt: corrupt coordinator checkpoint: next round %d", cp.NextRound)
	}
	if len(cp.History) != cp.NextRound-1 {
		return fmt.Errorf("fedzkt: corrupt coordinator checkpoint: %d finalised rounds in history but next round is %d", len(cp.History), cp.NextRound)
	}
	if err := c.server.LoadCheckpoint(bytes.NewReader(cp.Server)); err != nil {
		return err
	}
	if err := c.reconcileDevices(); err != nil {
		return err
	}
	c.nextRound = cp.NextRound
	c.hist = append(c.hist[:0], cp.History...)
	return nil
}
