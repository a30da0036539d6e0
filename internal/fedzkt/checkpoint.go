package fedzkt

// Checkpoints. A checkpoint is one record: a 4-byte magic and a 1-byte
// format version, so a reader rejects foreign blobs and version mismatches
// with a clear error instead of failing inside gob, then one gob-encoded
// checkpoint. A federation snapshot (Engine.SaveCheckpoint) carries a
// round cursor; a server snapshot (Server.CheckpointBytes) is the same
// record without one, which nothing loads. A checkpoint loads only through
// Coordinator.LoadCheckpoint, and only into a coordinator of exactly the
// snapshot's devices, architecture for architecture. Only written slots
// are stored: a virgin replica (slotStore.virgin) is an empty entry, its
// content its device's seeded state — a function of (Seed, id) — so a
// save rebuilds nothing, a load leaves the slot virgin (or drops it back
// to virgin, after the beforeWrite hook), and a load refuses another
// seed. Version 2 made payloads codec containers, 3 added
// the optimiser state and the finalised-round history (a bit-exact
// synchronous resume), 4 is one record for both kinds, with the seed and
// empty entries. Version-1 blobs predate the header and fail on the magic.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/optim"
)

// checkpointMagic opens every checkpoint, at byte offset 0; the format
// version this build writes and reads follows at offset 4.
var checkpointMagic = [4]byte{'F', 'Z', 'C', 'C'}

const checkpointVersion = 4

// checkpoint is the gob body of a checkpoint: the registered
// architectures, every written replica as a self-describing codec
// container, the global model, the generator and the cross-round optimiser
// state — and, in a federation snapshot, the round cursor and history.
type checkpoint struct {
	// Codec records the state codec the server ran with, for
	// inspection; the payloads are self-describing, so loading does not
	// depend on it.
	Codec string
	Seed  uint64 // an empty replica entry is its device's seeded state under it
	Archs []string
	// Global and Gen are always dense float64 containers: they are live
	// training state, and exact restoration keeps a resumed trajectory on
	// the saved one.
	Global []byte
	Gen    []byte
	// Replicas hold each written slot in its resident form — quantised
	// slots are persisted verbatim, so a same-codec reload is bit-exact
	// and costs no re-encode — and an empty entry for each virgin one.
	Replicas [][]byte
	// GlobalOpt and GenOpt capture the server optimisers' cross-round
	// state: the global SGD's momentum velocity and the generator Adam's
	// moments and step count, plus each one's (possibly decayed) learning
	// rate. Without them a resumed run restarts the optimisers cold and
	// drifts off the saved trajectory.
	GlobalOpt optim.State
	GenOpt    optim.State
	// GlobalSchedStep and GenSchedStep are the paper schedules' step
	// counters, re-arming the remaining decay milestones on resume.
	GlobalSchedStep int
	GenSchedStep    int
	NextRound       int // the first unfinalised round; 0 in a server snapshot
	// History holds every finalised round's metrics, so a resumed
	// federation can report (and fingerprint) the whole run, not just the
	// rounds executed after the resume.
	History fed.History
}

// writeCheckpoint frames and encodes cp.
func writeCheckpoint(w io.Writer, cp *checkpoint) error {
	if _, err := w.Write(append(checkpointMagic[:], checkpointVersion)); err != nil {
		return fmt.Errorf("fedzkt: writing checkpoint: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("fedzkt: writing checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint validates a checkpoint's magic and version, naming the
// failing byte offset, and decodes its body.
func readCheckpoint(r io.Reader) (*checkpoint, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("fedzkt: reading checkpoint header at byte offset 0: %w", err)
	}
	if !bytes.Equal(hdr[:4], checkpointMagic[:]) {
		return nil, fmt.Errorf("fedzkt: not a checkpoint (bad magic %q at byte offset 0; pre-versioned checkpoints from before the state-codec format are not readable)", hdr[:4])
	}
	if hdr[4] != checkpointVersion {
		return nil, fmt.Errorf("fedzkt: unsupported checkpoint version %d at byte offset 4 (this build reads version %d)", hdr[4], checkpointVersion)
	}
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("fedzkt: reading checkpoint: %w", err)
	}
	return &cp, nil
}

// snapshot captures the server's learned state as a checkpoint without a
// cursor: a virgin replica is an empty entry, rebuilt from nothing.
func (s *Server) snapshot() (*checkpoint, error) {
	f64, err := codec.Get(codec.Float64)
	if err != nil {
		return nil, err
	}
	cp := &checkpoint{Codec: s.codec.Name(), Seed: s.cfg.Seed}
	if cp.Global, err = codec.Encode(f64, nn.CaptureState(s.global)); err != nil {
		return nil, fmt.Errorf("fedzkt: checkpoint global: %w", err)
	}
	if cp.Gen, err = codec.Encode(f64, nn.CaptureState(s.gen)); err != nil {
		return nil, fmt.Errorf("fedzkt: checkpoint generator: %w", err)
	}
	cp.GlobalOpt = s.globalOpt.CaptureState()
	cp.GenOpt = s.genOpt.CaptureState()
	cp.GlobalSchedStep = s.globalSched.Step()
	cp.GenSchedStep = s.genSched.Step()
	for _, ref := range s.cohorts.devices {
		var b []byte
		if !s.cohorts.virgin(ref) {
			if b, err = s.cohorts.appendPayload(ref, nil); err != nil {
				return nil, fmt.Errorf("fedzkt: checkpoint replica %d: %w", ref.member.id, err)
			}
		}
		cp.Replicas = append(cp.Replicas, b)
		cp.Archs = append(cp.Archs, ref.cohort.arch)
	}
	return cp, nil
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

// stageCheckpoint validates every part of a decoded checkpoint against the
// live server without mutating any state — the seed, the device count,
// positional architecture matches, every stored replica's container
// layout, and the global/generator state dicts, which it returns decoded —
// so the commit phase cannot fail a structural check.
func (s *Server) stageCheckpoint(cp *checkpoint) (global, gen nn.StateDict, err error) {
	if cp.Seed != s.cfg.Seed {
		return nil, nil, fmt.Errorf("fedzkt: checkpoint of seed %d does not load into a server of seed %d (a never-written replica is its device's seeded state)", cp.Seed, s.cfg.Seed)
	}
	if len(cp.Replicas) != len(cp.Archs) {
		return nil, nil, fmt.Errorf("fedzkt: corrupt checkpoint: %d replicas for %d archs", len(cp.Replicas), len(cp.Archs))
	}
	if n := s.cohorts.numDevices(); n != len(cp.Archs) {
		return nil, nil, fmt.Errorf("fedzkt: checkpoint of %d devices does not load into a federation of %d (a checkpoint loads only into a coordinator of exactly its devices)", len(cp.Archs), n)
	}
	for i, arch := range cp.Archs {
		c := s.cohorts.devices[i].cohort
		if c.arch != arch {
			return nil, nil, fmt.Errorf("fedzkt: device %d architecture mismatch: %s vs checkpointed %s", i, c.arch, arch)
		}
		if len(cp.Replicas[i]) == 0 {
			continue // virgin: nothing stored to validate
		}
		entries, err := codec.Layout(cp.Replicas[i])
		if err != nil {
			return nil, nil, fmt.Errorf("fedzkt: checkpoint replica %d: %w", i, err)
		}
		if err := c.sig.checkLayout(arch, entries); err != nil {
			return nil, nil, fmt.Errorf("fedzkt: checkpoint replica %d: %w", i, err)
		}
	}
	if global, err = codec.Decode(cp.Global); err != nil {
		return nil, nil, fmt.Errorf("fedzkt: checkpoint global: %w", err)
	}
	if err := checkStateDict(s.global, global, "global"); err != nil {
		return nil, nil, err
	}
	if gen, err = codec.Decode(cp.Gen); err != nil {
		return nil, nil, fmt.Errorf("fedzkt: checkpoint generator: %w", err)
	}
	return global, gen, checkStateDict(s.gen, gen, "generator")
}

// load restores a decoded checkpoint into a server of exactly its devices
// and seed. Stored replica payloads are self-describing containers, so a
// checkpoint written under one codec loads into a server configured with
// another: same-codec payloads are adopted verbatim (bit-exact),
// foreign-dtype payloads are re-encoded into the configured codec so the
// slots keep its memory and accounting invariants (a float64 server
// re-encodes them exactly). A replica stored as an empty entry — never
// written when the snapshot was taken — is left (or made, after the
// beforeWrite hook) virgin, so it reads as the loading server's seeded
// state: under a lossy codec, the seeded state quantised by the loading
// server's codec, not the saving one's.
//
// The load is all-or-nothing against structural faults: the seed and
// every count, architecture, container layout and state-dict shape are
// validated before the first mutation (stageCheckpoint), and the optimiser
// restores are themselves atomic, so a truncated or corrupt checkpoint
// leaves the server exactly as it was. (Disk I/O failing mid-commit in
// the spill store is the one residual partial-write risk; the durable
// file layer's CRC makes that a crash-then-rollback, not a silent load.)
func (s *Server) load(cp *checkpoint) error {
	global, gen, err := s.stageCheckpoint(cp)
	if err != nil {
		return err
	}
	// Commit. Optimiser loads first: they validate internally and either
	// fully apply or leave the optimiser untouched — and a refused
	// generator snapshot puts the global optimiser's own back — so a
	// malformed optimiser snapshot still aborts with zero server mutations.
	prevGlobalOpt := s.globalOpt.CaptureState()
	if err := s.globalOpt.LoadState(cp.GlobalOpt); err != nil {
		return fmt.Errorf("fedzkt: checkpoint global optimiser: %w", err)
	}
	if err := s.genOpt.LoadState(cp.GenOpt); err != nil {
		_ = s.globalOpt.LoadState(prevGlobalOpt) // its own snapshot: cannot fail
		return fmt.Errorf("fedzkt: checkpoint generator optimiser: %w", err)
	}
	s.globalSched.SetStep(cp.GlobalSchedStep)
	s.genSched.SetStep(cp.GenSchedStep)
	// Uploads absorbed before the load belong to a round the checkpoint
	// replaces: they are no round's participants any more.
	s.takeAbsorbed()
	if err := nn.LoadState(s.global, global); err != nil {
		return fmt.Errorf("fedzkt: checkpoint global: %w", err)
	}
	if err := nn.LoadState(s.gen, gen); err != nil {
		return fmt.Errorf("fedzkt: checkpoint generator: %w", err)
	}
	for i, b := range cp.Replicas {
		if ref := s.cohorts.devices[i]; len(b) > 0 {
			err = s.cohorts.installPayload(ref, b)
		} else {
			err = s.cohorts.drop(ref)
		}
		if err != nil {
			return fmt.Errorf("fedzkt: checkpoint replica %d: %w", i, err)
		}
	}
	return nil
}

// CheckpointBytes serialises the server's learned state — global model,
// generator, every written device replica in its slot encoding, and the
// optimiser/schedule state — as a checkpoint without a round cursor. It
// measures what a federation snapshot costs; no loader takes it.
func (s *Server) CheckpointBytes() ([]byte, error) {
	cp, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, cp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SaveCheckpoint serialises the federation's resumable state: the server
// snapshot (global model, generator, every written replica, optimiser
// state) with the first unfinalised round and the finalised rounds'
// metrics. Device-local state is deliberately not serialised — on load
// every device is reconciled to its server replica. After a clean stop the
// snapshot is an exact round boundary: a full-participation synchronous
// run resumed from it replays the uninterrupted trajectory bit for bit.
// After a cancellation it is consistent but approximate: work the
// in-flight round already did is retained in the snapshot — uploads
// absorbed into replicas, and any partial distillation progress in the
// global model, generator and their optimisers — and the resumed Run
// re-runs that round on top of it, so a resumed trajectory is not a
// bit-exact replay of an uninterrupted one. Rolling the server back to the
// boundary would require a full per-round state copy, which this
// deliberately does not pay for.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	cp, err := e.server.snapshot()
	if err != nil {
		return err
	}
	cp.NextRound, cp.History = e.nextRound, e.hist
	return writeCheckpoint(w, cp)
}

// LoadCheckpoint restores a federation snapshot written by
// Engine.SaveCheckpoint into a coordinator built with the same
// configuration, dataset and shards; a snapshot without a round cursor (a
// server's), or of another device count or architecture list, is refused. The server state is restored bit-exactly; each
// device then downloads its replica state — the server's latest knowledge
// of it — so a device that had local progress in an unfinalised (in-flight)
// round resumes from the last state the server saw instead. A subsequent
// Run continues from the first unfinalised round, replaying the
// client-sampling stream up to it. The load is all-or-nothing: a corrupt
// snapshot rejects the whole load with the coordinator unchanged (see
// Server.load).
func (c *Coordinator) LoadCheckpoint(r io.Reader) error {
	cp, err := readCheckpoint(r)
	if err != nil {
		return err
	}
	if cp.NextRound < 1 {
		return fmt.Errorf("fedzkt: checkpoint has no round cursor (next round %d): a coordinator resumes only from a federation snapshot", cp.NextRound)
	}
	if len(cp.History) != cp.NextRound-1 {
		return fmt.Errorf("fedzkt: corrupt checkpoint: %d finalised rounds in history but next round is %d", len(cp.History), cp.NextRound)
	}
	if err := c.server.load(cp); err != nil {
		return err
	}
	c.reconcileDevices()
	c.nextRound = cp.NextRound
	c.hist = append(c.hist[:0], cp.History...)
	return nil
}
