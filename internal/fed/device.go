// Package fed provides the federated-learning runtime shared by FedZKT and
// the baselines: per-device state and local training (Algorithm 2 of the
// paper, including the ℓ2 proximal regularisation of Eq. 9), active-device
// sampling for straggler experiments, batched evaluation, and per-round
// metrics.
package fed

import (
	"fmt"
	"math/rand/v2"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/optim"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Device is one federated participant: an independently chosen on-device
// model plus a private shard of training data.
type Device struct {
	ID   int
	Arch string
	// Model is the module the device trains and is evaluated on. The
	// in-process coordinator keeps a device's state at rest in a slot store
	// and sets Model to a worker's module only while a task or an
	// evaluation runs; it is nil in between.
	Model nn.Module
	Data  *data.Subset

	// Scratch, when set, is the step-scoped allocator the device's
	// training steps draw every activation, backward scratch and batch
	// buffer from — reset after each optimiser step, so a warmed-up step
	// allocates (almost) nothing. It is runtime-local state (never
	// serialised) and must be owned by the goroutine currently running
	// the device's task; schedulers hand workers' arenas to devices just
	// before LocalUpdate (see sched.Options.WorkerScratch). Nil gives
	// each LocalUpdate an arena of its own for the call.
	Scratch *ag.Arena

	// TaskScratch, when set, is the task-scoped allocator LocalUpdate
	// draws its optimiser's momentum buffers and the model's parameter
	// gradients from: state that must outlive every step but dies with
	// the task (LocalUpdate detaches the gradients before it returns, so
	// between updates a model holds none). Like Scratch it is
	// runtime-local and owned by the goroutine running the device's
	// task; whoever installs it resets it once the task has ended. Nil
	// keeps plain heap allocation, with gradients that stay on the model.
	TaskScratch *tensor.Arena

	// received is the anchor of the ℓ2 proximal term (Eq. 9): a snapshot
	// of the parameters last downloaded from the server. It is captured
	// lazily — by the first LocalUpdate after a download, while the model
	// still equals that download, and only when that update's ProxMu > 0
	// (or at any time by an explicit SnapshotReceived) — so a federation
	// that never uses the proximal term never holds one. anchorDue marks
	// a download no LocalUpdate has seen yet.
	received  nn.StateDict
	anchorDue bool
}

// NewDevice constructs a device over its private data shard.
func NewDevice(id int, arch string, m nn.Module, shard *data.Subset) *Device {
	return &Device{ID: id, Arch: arch, Model: m, Data: shard}
}

// SnapshotReceived records the model's current parameters as "received
// from the server"; subsequent LocalUpdate calls regularise toward them.
// A device that already holds an anchor of the same layout overwrites it
// in place instead of cloning the state again.
func (d *Device) SnapshotReceived() {
	d.anchorDue = false
	cur := nn.CaptureState(d.Model)
	if d.received == nil || d.received.LoadFrom(cur) != nil {
		d.received = cur.Clone()
	}
}

// LendAnchor gives the device a buffer of its model's state layout to
// capture its next proximal anchor in, instead of cloning the state (see
// SnapshotReceived). Whatever the buffer holds is not an anchor: lend it
// only to a device whose next LocalUpdate follows a download. The lender
// keeps the buffer and takes it back with LendAnchor(nil), which leaves the
// device without an anchor.
func (d *Device) LendAnchor(buf nn.StateDict) { d.received = buf }

// Downloaded records that the model now holds a state received from the
// server, installed by whoever keeps the device's state: the first
// LocalUpdate after it captures its proximal anchor, as after Download.
func (d *Device) Downloaded() { d.anchorDue = true }

// LocalConfig configures a device's local training (Algorithm 2).
type LocalConfig struct {
	// Epochs is the number of local passes over the shard (T_l).
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// LR is the SGD learning rate (paper: 0.01).
	LR float64
	// Momentum is the SGD momentum (paper uses plain SGD; kept for
	// ablations).
	Momentum float64
	// WeightDecay is the SGD weight decay (paper: 5e-4 for Table V runs).
	WeightDecay float64
	// ProxMu scales the ℓ2 proximal term μ·‖w − w_recv‖² toward the last
	// received parameters (Eq. 9). Zero disables it.
	ProxMu float64
}

// DeviceSeed is the seed of device id's model initialisation in a run
// seeded with seed — on the device, in the server's replica of it, and in
// a virtual slot rebuilt on first touch, which is what makes the three
// bit-identical.
func DeviceSeed(seed uint64, id int) uint64 { return seed + uint64(1000+id) }

// LocalRNG is the generator device id trains with in the given round: a
// pure function of (seed, round, id), so the local phase does not depend
// on which worker or process runs it.
func LocalRNG(seed uint64, round, id int) *rand.Rand {
	return tensor.NewRand(seed ^ (uint64(round)<<20 + uint64(id)<<4 + 0x5EED))
}

// Validate reports configuration errors.
func (c LocalConfig) Validate() error {
	if c.Epochs <= 0 || c.BatchSize <= 0 || c.LR <= 0 {
		return fmt.Errorf("fed: invalid local config %+v", c)
	}
	return nil
}

// LocalUpdate runs Algorithm 2: Epochs passes of mini-batch SGD on the
// cross-entropy loss over the device's private shard, optionally with the
// ℓ2 proximal term. It returns the mean training loss of the final epoch.
func (d *Device) LocalUpdate(cfg LocalConfig, rng *rand.Rand) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if d.Data.Len() == 0 {
		return 0, fmt.Errorf("fed: device %d has no data", d.ID)
	}
	d.Model.SetTraining(true)
	params := d.Model.Params()
	opt := optim.NewSGDIn(d.TaskScratch, params, cfg.LR, cfg.Momentum, cfg.WeightDecay)
	if d.TaskScratch != nil {
		ag.LendGrads(params, d.TaskScratch)
		defer ag.DetachGrads(params) // also on a panicking step
	}

	if d.anchorDue {
		// First update since a download: the model still holds exactly the
		// downloaded values. An update without the proximal term moves it
		// off them uncaptured, so no anchor survives that update.
		if cfg.ProxMu > 0 {
			d.SnapshotReceived()
		} else {
			d.received, d.anchorDue = nil, false
		}
	}
	var anchor nn.StateDict
	if cfg.ProxMu > 0 && d.received != nil {
		anchor = d.received
	}
	// The tensor-to-parameter identity map is a pure function of the
	// model, so build it once per call rather than once per batch.
	var byTensor map[*tensor.Tensor]*ag.Variable
	var captured nn.StateDict
	if anchor != nil {
		captured = nn.CaptureState(d.Model)
		byTensor = make(map[*tensor.Tensor]*ag.Variable, len(params))
		for _, p := range params {
			byTensor[p.Value()] = p
		}
	}

	ar := d.Scratch
	if ar == nil {
		ar = ag.NewArena()
	}
	lastLoss := 0.0
	for ep := 0; ep < cfg.Epochs; ep++ {
		epochLoss, batches := 0.0, 0
		for _, idx := range data.ShuffledBatches(d.Data.Len(), cfg.BatchSize, rng) {
			x, y := d.Data.BatchIn(ar.Tensors(), idx)
			opt.ZeroGrad()
			loss := ag.CrossEntropy(d.Model.Forward(ag.ConstIn(ar, x)), y)
			ag.Backward(loss)
			if anchor != nil {
				addProximalGrad(captured, anchor, byTensor, cfg.ProxMu)
			}
			opt.Step()
			epochLoss += loss.Value().Data()[0]
			batches++
			// Everything step-scoped — activations, scratch, the batch,
			// the tape itself — is recycled; parameters, their gradients
			// and the optimiser state live outside the step arena.
			ar.Reset()
		}
		lastLoss = epochLoss / float64(batches)
	}
	return lastLoss, nil
}

// addProximalGrad adds 2μ(w − w_anchor) to every parameter gradient —
// the analytic gradient of μ‖w − w_anchor‖², applied directly instead of
// through the tape for efficiency. Batch-norm running statistics appear in
// the state dict but not in params, so they are naturally excluded.
func addProximalGrad(captured, anchor nn.StateDict, byTensor map[*tensor.Tensor]*ag.Variable, mu float64) {
	for name, w := range captured {
		p, isParam := byTensor[w]
		if !isParam {
			continue
		}
		g := p.Grad()
		if g == nil {
			continue
		}
		prev, ok := anchor[name]
		if !ok || prev.Len() != w.Len() {
			continue
		}
		gd, wd, ad := g.Data(), w.Data(), prev.Data()
		for i := range gd {
			gd[i] += 2 * mu * (wd[i] - ad[i])
		}
	}
}

// Upload captures a deep copy of the device's full model state, as sent to
// the server.
func (d *Device) Upload() nn.StateDict {
	return nn.CaptureState(d.Model).Clone()
}

// UploadPayload encodes the device's full model state with the given
// state codec, as put on the (simulated or real) wire, returning the
// payload and its element count for traffic accounting. Unlike Upload it
// skips the intermediate dense deep copy: the codec reads the live
// tensors directly.
func (d *Device) UploadPayload(c codec.Codec) ([]byte, int, error) {
	sd := nn.CaptureState(d.Model)
	b, err := codec.Encode(c, sd)
	if err != nil {
		return nil, 0, fmt.Errorf("fed: device %d upload: %w", d.ID, err)
	}
	return b, sd.Numel(), nil
}

// DownloadPayload installs a codec container received from the server as
// Download does, decoding it straight into the live model's tensors. The
// container is self-describing, so no codec handle is needed on the
// receive side. The whole container is validated against the model
// before anything is written: a rejected payload leaves the model and
// the proximal anchor untouched.
func (d *Device) DownloadPayload(b []byte) error {
	if err := codec.DecodeInto(b, nn.CaptureState(d.Model)); err != nil {
		return fmt.Errorf("fed: device %d download: %w", d.ID, err)
	}
	d.Downloaded()
	return nil
}

// Download installs server-provided parameters into the device model and
// makes them the proximal anchor of the updates that follow (captured by
// the first of them that uses the proximal term; see Device.received).
func (d *Device) Download(sd nn.StateDict) error {
	if err := nn.LoadState(d.Model, sd); err != nil {
		return fmt.Errorf("fed: device %d download: %w", d.ID, err)
	}
	d.Downloaded()
	return nil
}
