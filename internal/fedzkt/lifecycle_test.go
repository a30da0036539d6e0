package fedzkt

import (
	"bytes"
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/fedzkt/fedzkt/internal/codec"
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

// fleetTap is the fleet a tapped coordinator's engine drives: the
// coordinator itself, with each local phase's start, the round's uploads,
// each download and each round's close shown to the hooks that are set.
type fleetTap struct {
	Fleet
	starting   func(round int) // before the coordinator runs the local phase
	uploaded   func(u Upload)
	delivering func(round, id int, p Payload) // before the coordinator takes p
	delivered  func(round, id int)
	closing    func(m *fed.RoundMetrics)
}

// tap installs a fleetTap between co's engine and co, and returns it.
func tap(co *Coordinator) *fleetTap {
	ft := &fleetTap{Fleet: co}
	co.fleet = ft
	return ft
}

func (ft *fleetTap) LocalPhase(ctx context.Context, round int, active []int, m *fed.RoundMetrics) ([]Upload, error) {
	if ft.starting != nil {
		ft.starting(round)
	}
	ups, err := ft.Fleet.LocalPhase(ctx, round, active, m)
	for _, u := range ups {
		if ft.uploaded != nil {
			ft.uploaded(u)
		}
	}
	return ups, err
}

func (ft *fleetTap) Deliver(round, id int, p Payload) error {
	if ft.delivering != nil {
		ft.delivering(round, id, p)
	}
	if err := ft.Fleet.Deliver(round, id, p); err != nil {
		return err
	}
	if ft.delivered != nil {
		ft.delivered(round, id)
	}
	return nil
}

func (ft *fleetTap) CloseRound(m *fed.RoundMetrics) error {
	if ft.closing != nil {
		ft.closing(m)
	}
	return ft.Fleet.CloseRound(m)
}

// uploadedBytes returns the container u brings the server: its payload,
// or for an upload its device task installed, the replica the task wrote.
// Called as the local phase returns, before anything else writes the
// replica.
func uploadedBytes(t testing.TB, co *Coordinator, u Upload) []byte {
	t.Helper()
	if !u.installed {
		return bytes.Clone(u.Enc)
	}
	b, _, err := co.Server().ReplicaPayload(u.ID)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// deviceState returns a dense copy of device id's state at rest.
func deviceState(t testing.TB, co *Coordinator, id int) (sd nn.StateDict) {
	t.Helper()
	withDevice(t, co, id, func(d *fed.Device) { sd = nn.CaptureState(d.Model).Clone() })
	return sd
}

// TestResidentSlotsVirginUntilWritten: a resident fleet registers every
// slot, server and device side, virgin and writes one only when it is
// used. Reading — evaluating devices, checking replicas out as
// teachers — writes nothing, and a read-only checkout of a virgin replica
// holds exactly what its download would deliver. During a sampled run at
// depth 0 a device slot is never written: a finished task drops it, stops
// the device following its replica and writes the trained state into the
// replica, so between the task and its download the state exists only
// there, and the download makes the device follow its replica. So after
// the run no device slot is written, every absorbed device's replica is,
// and a device never sampled is virgin on both sides: transfer-back writes
// only the round's participants.
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

	ft := tap(co)
	betweenTaskAndDownload := func(when string, id int) {
		t.Helper()
		if _, device := virgins(id); !device {
			t.Errorf("%s: device %d's slot holds its trained state", when, id)
		}
		if co.follows[id] {
			t.Errorf("%s: device %d follows its replica", when, id)
		}
	}
	ft.uploaded = func(u Upload) {
		if server, _ := virgins(u.ID); server || !u.installed || u.Enc != nil {
			t.Errorf("device %d finished its task: replica virgin %v, upload installed %v with %d payload bytes; want its state in the replica and no payload",
				u.ID, server, u.installed, len(u.Enc))
		}
		betweenTaskAndDownload("after its task", u.ID)
	}
	ft.delivering = func(_, id int, _ Payload) {
		if server, _ := virgins(id); server {
			t.Errorf("device %d trained and was absorbed, yet before its download its replica is virgin", id)
		}
		betweenTaskAndDownload("before its download", id)
	}
	ft.delivered = func(_, id int) {
		if _, device := virgins(id); !device {
			t.Errorf("device %d still holds its own state after its download", id)
		}
	}
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	absorbed := make(map[int]bool)
	for _, m := range hist {
		lost := make(map[int]bool)
		for _, id := range append(append([]int(nil), m.Dropped...), m.Injected...) {
			lost[id] = true
		}
		for _, id := range m.Active {
			absorbed[id] = absorbed[id] || !lost[id]
		}
	}
	never := 0
	for _, id := range all {
		server, device := virgins(id)
		if !device {
			t.Errorf("device %d's device slot is written after the run", id)
		}
		if server == absorbed[id] {
			t.Errorf("device %d: absorbed %v, virgin on the server %v", id, absorbed[id], server)
		}
		if !absorbed[id] {
			never++
		}
	}
	if never == 0 {
		t.Fatal("every device was absorbed: nothing left to check for staying virgin")
	}
}

// deviceSlotsHeld lists the devices whose own slot holds a state.
func deviceSlotsHeld(co *Coordinator) []int {
	var ids []int
	for _, d := range co.devices {
		if !co.devStore[d.Arch].virgin(co.devLocal[d.ID]) {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// spares returns, per architecture, the buffers on the device store's
// spare list.
func spares(co *Coordinator) map[string]int {
	n := make(map[string]int)
	for arch, st := range co.devStore {
		st.mu.Lock()
		n[arch] = len(st.spare)
		st.mu.Unlock()
	}
	return n
}

// mostParticipants returns, per architecture, the most devices of it that
// trained within window consecutive rounds of hist.
func mostParticipants(co *Coordinator, hist fed.History, window int) map[string]int {
	most := make(map[string]int)
	for i := range hist {
		seen := make(map[int]bool)
		per := make(map[string]int)
		for _, m := range hist[i:min(i+window, len(hist))] {
			for _, id := range m.Active {
				if !slices.Contains(m.Injected, id) && !seen[id] {
					seen[id] = true
					per[co.devices[id].Arch]++
				}
			}
		}
		for arch, n := range per {
			most[arch] = max(most[arch], n)
		}
	}
	return most
}

// dictDigest hashes the bits of sd's values, in name order.
func dictDigest(sd nn.StateDict) uint64 {
	h := fnv.New64a()
	hashDict(h, sd)
	return h.Sum64()
}

// hashDict writes the bits of sd's values to h, in name order.
func hashDict(h hash.Hash, sd nn.StateDict) {
	var b [8]byte
	for _, name := range sd.Names() {
		for _, v := range sd[name].Data() {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
}

// payloadDigest is dictDigest of the state a payload carries.
func payloadDigest(t testing.TB, enc []byte) uint64 {
	t.Helper()
	sd, err := codec.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	return dictDigest(sd)
}

// countCopies wraps co's copy-on-write hook, recording the followers it
// gave their own copy, by round.
func countCopies(co *Coordinator, ft *fleetTap) (copies func() [][]int) {
	var mu sync.Mutex
	byRound := [][]int{nil}
	hook := co.server.cohorts.beforeWrite
	co.server.cohorts.beforeWrite = func(id int) error {
		following := co.follows[id]
		err := hook(id)
		if following && err == nil {
			mu.Lock()
			byRound[len(byRound)-1] = append(byRound[len(byRound)-1], id)
			mu.Unlock()
		}
		return err
	}
	closing := ft.closing
	ft.closing = func(m *fed.RoundMetrics) {
		if closing != nil {
			closing(m)
		}
		mu.Lock()
		byRound = append(byRound, nil)
		mu.Unlock()
	}
	return func() [][]int {
		for _, ids := range byRound {
			slices.Sort(ids)
		}
		return byRound[:len(byRound)-1]
	}
}

// TestDevicesFollowTheirReplicas: after a synchronous download a device
// keeps no state of its own and follows its server replica until it trains
// again or the server is about to overwrite the replica.
//   - Sampled, depth 0, over the memory and the spill store: no device
//     store takes a buffer or ever holds a state (a trained state does
//     not outlive its round, so it is never written), and the copy-on-write
//     hook never copies (transfer-back writes participants only, and they
//     stopped following when they trained).
//   - Exact mode with SampleK < N: transfer-back writes every replica, and
//     the hook copies exactly the followers — the previous round's downloads that did not train this
//     round. The device stores build a buffer for each copy held at
//     once and recycle them for the later copies.
//   - Sampled, depth 2, where the server stage races the device tasks:
//     the hook is installed, and a delivered device holds the payload in
//     its own slot, rather than following its replica, only when the
//     replica was written or the device trained after the delivered round.
//     After the run no device slot holds a state, and a store never held
//     more than the devices of its architecture that trained within
//     depth + 1 consecutive rounds: a trained state rests in its slot
//     until the round's download. No device store holds a buffer after
//     New, and the stores built one per state held at once.
//   - LoadCheckpoint at depth 0: every device follows, no device store
//     holds a state.
//
// Subtests named resident run the memory store, virtual toyFleet's spill
// store.
func TestDevicesFollowTheirReplicas(t *testing.T) {
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{{"resident", resident}, {"virtual", nil}} {
		t.Run("sampled/"+mode.name, func(t *testing.T) {
			co := toyFleet(t, 4, mode.mutate)
			for arch, n := range spares(co) {
				if n != 0 {
					t.Errorf("%s device store holds %d buffers after New, want none: no slot was written", arch, n)
				}
			}
			ft := tap(co)
			ft.closing = func(m *fed.RoundMetrics) {
				if held := deviceSlotsHeld(co); len(held) > 0 {
					t.Errorf("round %d boundary: device slots %v hold a state", m.Round, held)
				}
			}
			copies := countCopies(co, ft)
			if _, err := co.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for r, ids := range copies() {
				if len(ids) > 0 {
					t.Errorf("round %d: the hook copied replicas %v into followers", r+1, ids)
				}
			}
			for arch, st := range co.devStore {
				if st.peak != 0 {
					t.Errorf("%s device store held %d states at once, want 0: a depth-0 trained state is its upload", arch, st.peak)
				}
			}
		})
	}

	t.Run("exact", func(t *testing.T) {
		co := toyFleet(t, 4, func(c *Config) { resident(c); c.TeachersPerIter = 0; c.Workers = 1 })
		ft := tap(co)
		copies := countCopies(co, ft)
		hist, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Every buffer a hook copy was made in was built at a first write
		// that found no spare: as many as the copies held at once, the rest
		// recycled through the spare list.
		peaks := 0
		for _, st := range co.devStore {
			peaks += st.peak
		}
		stats := co.DeviceStoreStats()
		if stats.BuffersBuilt != int64(peaks) || stats.BuffersReused == 0 {
			t.Errorf("device stores built %d buffers and reused %d, want the %d hook copies held at once built and the later ones reused", stats.BuffersBuilt, stats.BuffersReused, peaks)
		}
		got, total := copies(), 0
		for r, m := range hist {
			var want []int
			if r > 0 {
				prev := hist[r-1]
				trained := func(m fed.RoundMetrics, id int) bool {
					return slices.Contains(m.Active, id) && !slices.Contains(m.Injected, id)
				}
				for _, id := range prev.Active {
					if trained(prev, id) && !trained(m, id) {
						want = append(want, id)
					}
				}
			}
			if fmt.Sprint(got[r]) != fmt.Sprint(want) {
				t.Errorf("round %d: the hook copied %v, want the followers transfer-back wrote %v", m.Round, got[r], want)
			}
			total += len(want)
		}
		if total == 0 {
			t.Fatal("no round had a follower for transfer-back to write")
		}
	})

	t.Run("depth2", func(t *testing.T) {
		co := toyFleet(t, 4, func(c *Config) { resident(c); c.PipelineDepth = 2 })
		if co.server.cohorts.beforeWrite == nil {
			t.Fatal("a depth-2 fleet did not install the copy-on-write hook")
		}
		for arch, n := range spares(co) {
			if n != 0 {
				t.Errorf("%s device store holds %d buffers before any slot is written, want none: a buffer is taken at first write", arch, n)
			}
		}
		// The server stage writes replicas on its own goroutine; the
		// wrapped hook records the round of each write as it happens.
		var mu sync.Mutex
		written := make(map[int]int)
		hook := co.server.cohorts.beforeWrite
		co.server.cohorts.beforeWrite = func(id int) error {
			mu.Lock()
			written[id] = int(co.serverRound)
			mu.Unlock()
			return hook(id)
		}
		ft := tap(co)
		trained := make(map[int]int)
		ft.uploaded = func(u Upload) { trained[u.ID] = u.Round }
		payloads := make(map[int]uint64)
		ft.delivering = func(_, id int, p Payload) { payloads[id] = payloadDigest(t, p.Enc) }
		followed, held := 0, 0
		ft.delivered = func(round, id int) {
			co.followMu.Lock()
			follows := co.follows[id]
			co.followMu.Unlock()
			mu.Lock()
			later := written[id] > round || trained[id] > round
			mu.Unlock()
			switch {
			case follows:
				followed++
			case !slices.Contains(deviceSlotsHeld(co), id):
				t.Errorf("round %d: device %d neither follows its replica nor holds a state", round, id)
			case !later:
				t.Errorf("round %d: device %d holds its download, yet its replica was not written nor did it train after the round", round, id)
			default:
				held++
			}
			if got := dictDigest(deviceState(t, co, id)); got != payloads[id] {
				t.Errorf("round %d: device %d's state is not the payload it was delivered", round, id)
			}
		}
		hist, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d downloads followed the replica, %d were installed", followed, held)
		if followed == 0 || held == 0 {
			t.Errorf("want both followed and installed downloads at depth 2: %d followed, %d installed", followed, held)
		}
		if held := deviceSlotsHeld(co); len(held) > 0 {
			t.Errorf("device slots %v hold a state after a sampled depth-2 run", held)
		}
		// A trained state rests in its slot until the round's download,
		// depth+1 rounds on, makes the device follow its replica: the
		// store holds at most the devices trained within that window.
		// Each store took a buffer only for a slot's first write while no
		// spare was left: one per state held at once.
		most := mostParticipants(co, hist, co.cfg.PipelineDepth+1)
		peaks := 0
		for arch, st := range co.devStore {
			if st.peak == 0 || st.peak > most[arch] {
				t.Errorf("%s device store held %d states at once, want 1..%d (the most %s participants of %d consecutive rounds)", arch, st.peak, most[arch], arch, co.cfg.PipelineDepth+1)
			}
			peaks += st.peak
		}
		if built := co.DeviceStoreStats().BuffersBuilt; built != int64(peaks) {
			t.Errorf("device stores built %d buffers, want the %d states they held at once", built, peaks)
		}
	})

	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{{"resident", resident}, {"virtual", nil}} {
		t.Run("checkpoint/"+mode.name, func(t *testing.T) {
			// Exact mode leaves device slots written (the hook's copies), so
			// the load has states to drop.
			exact := func(c *Config) {
				if mode.mutate != nil {
					mode.mutate(c)
				}
				c.TeachersPerIter = 0
			}
			ran := toyFleet(t, 2, exact)
			if _, err := ran.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			if err := ran.SaveCheckpoint(&blob); err != nil {
				t.Fatal(err)
			}
			co := toyFleet(t, 3, exact)
			if _, err := co.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(deviceSlotsHeld(co)) == 0 {
				t.Fatal("no device slot holds a state before the load: nothing to check")
			}
			if err := co.LoadCheckpoint(&blob); err != nil {
				t.Fatal(err)
			}
			if held := deviceSlotsHeld(co); len(held) > 0 {
				t.Errorf("device slots %v hold a state after LoadCheckpoint", held)
			}
			if slices.Contains(co.follows, false) {
				t.Error("a device does not follow its replica after LoadCheckpoint")
			}
		})
	}
}

// TestExactModeRacesFollowers: in exact mode (TeachersPerIter 0) with
// SampleK < N every transfer-back writes every replica, so at depth ≥ 1 the
// server stage writes the replicas of followers while the local stage
// materialises devices, over the memory store and over a spill store whose
// hot set evicts. Every materialisation — of a device right after its
// download, and of every device at the start of each local phase — must
// read exactly the device's state: the later of its last delivered
// payload and its last trained state. The downloads of odd rounds wait
// until the server has closed the next round, whose transfer-back rewrote
// every replica: they must be installed, never followed.
func TestExactModeRacesFollowers(t *testing.T) {
	const rounds = 6
	for _, store := range []string{ReplicaStoreMemory, ReplicaStoreSpill} {
		for _, depth := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/depth%d", store, depth), func(t *testing.T) {
				co := toyFleet(t, rounds, func(c *Config) {
					resident(c)
					c.TeachersPerIter, c.PipelineDepth, c.ReplicaStore = 0, depth, store
					if store == ReplicaStoreSpill {
						c.HotSet = 4
					}
				})
				ft := tap(co)
				closed := make([]chan struct{}, rounds+1)
				for r := range closed {
					closed[r] = make(chan struct{})
				}
				ft.closing = func(m *fed.RoundMetrics) { close(closed[m.Round]) }
				want := make(map[int]uint64) // id → digest of the device's state
				followers := 0
				follows := func(id int) bool {
					co.followMu.Lock()
					defer co.followMu.Unlock()
					return co.follows[id]
				}
				check := func(when string, id int) {
					if follows(id) {
						followers++
					}
					if got := dictDigest(deviceState(t, co, id)); got != want[id] {
						t.Errorf("%s: device %d materialises a state that is neither its last download nor its last trained state", when, id)
					}
				}
				ft.starting = func(round int) {
					for id := range want {
						check(fmt.Sprintf("round %d start", round), id)
					}
				}
				ft.uploaded = func(u Upload) { want[u.ID] = payloadDigest(t, u.Enc) }
				ft.delivering = func(round, id int, p Payload) {
					if round%2 == 1 && round < rounds {
						<-closed[round+1]
					}
					want[id] = payloadDigest(t, p.Enc)
				}
				ft.delivered = func(round, id int) {
					if round%2 == 1 && round < rounds && follows(id) {
						t.Errorf("round %d: device %d follows a replica the next round rewrote", round, id)
					}
					check(fmt.Sprintf("round %d download", round), id)
				}
				if _, err := co.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if followers == 0 {
					t.Fatal("no materialised device followed its replica: nothing raced")
				}
			})
		}
	}
}

// TestDeviceLifecycle: over the memory store (resident) or the spill
// store (virtual), on either engine, a device's model is its worker rig's
// module only while a task or an evaluation runs. After a run no device
// holds a model, no rig module holds a gradient (LocalUpdate lends them
// from the task arena and takes them back), and every module a device
// used was a rig's: at most workers × architectures were built.
func TestDeviceLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"resident", resident},
		{"resident-depth2", func(c *Config) { resident(c); c.PipelineDepth = 2 }},
		{"virtual", nil},
		{"virtual-prox", func(c *Config) { c.ProxMu = 0.1 }},
		{"virtual-depth2", func(c *Config) { c.PipelineDepth = 2 }},
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
