package fedzkt

import (
	"context"
	"fmt"
	"testing"

	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/nn"
)

// withDevice materialises device id in worker 0's rig, as an evaluation
// does, runs fn on it and releases it read-only: what fn does to the model
// need not stay. The pool must be idle.
func withDevice(t testing.TB, co *Coordinator, id int, fn func(d *fed.Device)) {
	t.Helper()
	rig := co.pool.WorkerScratch(0).(*deviceRig)
	d := co.devices[id]
	if _, err := co.materialise(rig, d); err != nil {
		t.Fatal(err)
	}
	fn(d)
	if err := co.release(rig, d, false); err != nil {
		t.Fatal(err)
	}
}

// deviceState returns a dense copy of device id's state at rest.
func deviceState(t testing.TB, co *Coordinator, id int) (sd nn.StateDict) {
	t.Helper()
	withDevice(t, co, id, func(d *fed.Device) { sd = nn.CaptureState(d.Model).Clone() })
	return sd
}

// TestResidentSlotsVirginUntilWritten: a resident fleet reserves every
// slot, server and device side, at registration and writes one only when
// it is used. Reading — evaluating devices, checking replicas out as
// teachers — writes nothing, and a read-only checkout of a virgin replica
// holds exactly what its download would deliver. After a sampled run every
// absorbed device is written on both sides, and a device never sampled is
// still virgin on its own.
func TestResidentSlotsVirginUntilWritten(t *testing.T) {
	co := toyFleet(t, 2, resident)
	cs := co.Server().cohorts
	virgins := func(id int) (server, device bool) {
		t.Helper()
		ref, err := cs.ref(id)
		if err != nil {
			t.Fatal(err)
		}
		d := co.devices[id]
		return cs.virgin(ref), co.devStore[d.Arch].virgin(co.devLocal[id])
	}
	all := cs.allIDs()
	allVirgin := func(when string) {
		t.Helper()
		for _, id := range all {
			if server, device := virgins(id); !server || !device {
				t.Fatalf("%s: device %d virgin on the server %v, on the device %v; want both", when, id, server, device)
			}
		}
	}
	allVirgin("after New")

	if _, err := co.EvaluateDevices(all); err != nil {
		t.Fatal(err)
	}
	leases := cs.checkout(all, false, false)
	for i, l := range leases {
		if l == nil {
			t.Fatalf("replica %d dropped from a read-only checkout", all[i])
		}
		want, _, err := co.Server().ReplicaPayload(all[i])
		if err != nil {
			t.Fatal(err)
		}
		holdsDecoded(t, fmt.Sprintf("replica %d", all[i]), l.slot.module, want)
	}
	if err := cs.release(leases); err != nil {
		t.Fatal(err)
	}
	allVirgin("after evaluating every device and checking every replica out read-only")

	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sampled := make(map[int]bool)
	for _, m := range hist {
		lost := make(map[int]bool)
		for _, id := range append(append([]int(nil), m.Dropped...), m.Injected...) {
			lost[id] = true
		}
		for _, id := range m.Active {
			sampled[id] = true
			if lost[id] {
				continue
			}
			if server, device := virgins(id); server || device {
				t.Errorf("round %d absorbed device %d, still virgin on the server %v, on the device %v", m.Round, id, server, device)
			}
		}
	}
	never := 0
	for _, id := range all {
		if sampled[id] {
			continue
		}
		never++
		if _, device := virgins(id); !device {
			t.Errorf("device %d was never sampled, yet its device slot was written", id)
		}
	}
	if never == 0 {
		t.Fatal("every device was sampled: nothing left to check for staying virgin")
	}
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
