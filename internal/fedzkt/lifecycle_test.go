package fedzkt

import (
	"context"
	"testing"

	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/nn"
)

// withDevice materialises device id in worker 0's rig, as a task or an
// evaluation does, runs fn on it and releases it. The pool must be idle.
func withDevice(t testing.TB, co *Coordinator, id int, fn func(d *fed.Device)) {
	t.Helper()
	rig := co.pool.WorkerScratch(0).(*deviceRig)
	d := co.devices[id]
	if _, err := co.materialise(rig, d); err != nil {
		t.Fatal(err)
	}
	fn(d)
	if err := co.release(rig, d); err != nil {
		t.Fatal(err)
	}
}

// deviceState returns a dense copy of device id's state at rest.
func deviceState(t testing.TB, co *Coordinator, id int) (sd nn.StateDict) {
	t.Helper()
	withDevice(t, co, id, func(d *fed.Device) { sd = nn.CaptureState(d.Model).Clone() })
	return sd
}

// TestDeviceLifecycle: resident or virtual, on either engine, a device's
// model is its worker rig's module only while a task or an evaluation
// runs. After a run no device holds a model, no rig module holds a
// gradient (LocalUpdate lends them from the task arena and takes them
// back), and every module a device used was a rig's: at most workers ×
// architectures were built.
func TestDeviceLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"resident", resident},
		{"resident-depth2", func(c *Config) { resident(c); c.PipelineDepth = 2 }},
		{"virtual", nil},
		{"virtual-prox", func(c *Config) { c.ProxMu = 0.1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := toyFleet(t, 3, tc.mutate)
			if _, err := co.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, d := range co.Devices() {
				if d.Model != nil {
					t.Fatalf("device %d holds a model after the run", d.ID)
				}
			}
			for w := 0; w < co.cfg.Workers; w++ {
				for arch, s := range co.pool.WorkerScratch(w).(*deviceRig).modules {
					for i, p := range s.module.Params() {
						if p.Grad() != nil {
							t.Fatalf("rig %d's %s module: parameter %d holds a gradient after the run", w, arch, i)
						}
					}
				}
			}
			if builds, _ := co.DeviceRigStats(); builds > int64(2*co.cfg.Workers) {
				t.Errorf("rigs built %d device modules, want at most workers × architectures = %d", builds, 2*co.cfg.Workers)
			}
		})
	}
}
