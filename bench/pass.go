package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
	"github.com/fedzkt/fedzkt/internal/transport"
)

// roundRec is one round of a returned history in JSON-safe form (every
// float checked finite before it gets here).
type roundRec struct {
	ElapsedMs, LocalMs, ServerMs   float64
	DownloadStallMs, UploadStallMs float64
	Active, Absorbed, Injected     int
	DroppedUploads                 int
	BytesUp, BytesDown             int64
}

// storeRec is the replica-store snapshot after a pass.
type storeRec struct {
	Misses, Evictions, InitBuilds   int64
	SpillReadBytes, SpillWriteBytes int64
	SpillRecords                    int
	ReplicaFaults                   int64
	ResidentStateBytes              int64
	LiveReplicas                    int
	HitRate, PrefetchOverlap        float64
}

// passResult is what one untraced child reports: the set-up time, the
// resource deltas around the public Run, and the returned history.
type passResult struct {
	// SetupCPUS is the set-up's user + sys CPU seconds, SetupWallS its
	// wall clock. SetupS is the setup_s metric, which only a set-up child
	// reports: CPU seconds of one set-up scaled by the reference work (on
	// the sizing host wall clock doubles when the hypervisor withholds the
	// CPUs, CPU time moves by half, the scaled time by a seventh).
	SetupCPUS, SetupWallS, SetupS float64
	// WallS is the benchmark's own clock around Run; CPU, allocation and
	// GC figures are deltas over the same interval.
	WallS, CPUUserS, CPUSysS float64
	AllocBytes               uint64
	GCCycles                 uint32
	GCPauseMs                float64
	PeakRSSMB                float64
	Rounds                   []roundRec
	Fingerprint              string // FNV-64a of History.Fingerprint()
	GlobalAcc, DeviceAcc     float64
	Store                    storeRec
	// Transport-only: session resumes and the round-summary arrival
	// intervals seen from outside, at device 0.
	Resumes   int
	OutsideMs []float64
	// Failed names every correctness check this pass failed.
	Failed []string
	// RunErr is Run's error, if any: every operation of the pass then
	// counts as failed.
	RunErr string
}

// resources snapshots the process counters Run is bracketed with.
type resources struct {
	t         time.Time
	user, sys float64
	alloc     uint64
	gc        uint32
	gcPauseNs uint64
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// setupTimer brackets a federation's set-up.
type setupTimer struct {
	start time.Time
	cpu   float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func startSetup() setupTimer { return setupTimer{time.Now(), cpuSeconds()} }

// stop returns a pass result carrying the set-up's cost.
func (t setupTimer) stop() *passResult {
	return &passResult{SetupCPUS: cpuSeconds() - t.cpu, SetupWallS: time.Since(t.start).Seconds()}
}

func snapshot() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return resources{
		user: tvSeconds(ru.Utime), sys: tvSeconds(ru.Stime),
		alloc: ms.TotalAlloc, gc: ms.NumGC, gcPauseNs: ms.PauseTotalNs,
		t: time.Now(),
	}
}

// since fills the pass's resource deltas from a snapshot taken before Run.
func (p *passResult) since(before resources) {
	wall := time.Since(before.t)
	after := snapshot()
	p.WallS = wall.Seconds()
	p.CPUUserS = after.user - before.user
	p.CPUSysS = after.sys - before.sys
	p.AllocBytes = after.alloc - before.alloc
	p.GCCycles = after.gc - before.gc
	p.GCPauseMs = float64(after.gcPauseNs-before.gcPauseNs) / 1e6
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fnvHex(s string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// record converts a history, failing the "finite" check on any NaN/Inf
// the run produced (a diverged generator shows up here first).
func (p *passResult) record(hist fed.History) {
	finite := true
	for _, m := range hist {
		if math.IsNaN(m.InputGradNorm) || math.IsInf(m.InputGradNorm, 0) ||
			math.IsNaN(m.GlobalAcc) || math.IsNaN(m.MeanDeviceAcc) {
			finite = false
		}
		p.Rounds = append(p.Rounds, roundRec{
			ElapsedMs: ms(m.Elapsed), LocalMs: ms(m.LocalElapsed), ServerMs: ms(m.ServerElapsed),
			DownloadStallMs: ms(m.DownloadStall), UploadStallMs: ms(m.UploadStall),
			Active: len(m.Active), Absorbed: m.Absorbed, Injected: len(m.Injected),
			DroppedUploads: m.DroppedUploads,
			BytesUp:        m.BytesUp, BytesDown: m.BytesDown,
		})
	}
	if !finite {
		p.fail("finite")
		return
	}
	p.Fingerprint = fnvHex(hist.Fingerprint())
	p.GlobalAcc = hist.FinalGlobalAcc()
	p.DeviceAcc = hist.FinalMeanDeviceAcc()
}

func (p *passResult) fail(check string) { p.Failed = append(p.Failed, check) }

func storeOf(srv *fedzkt.Server) storeRec {
	st := srv.ReplicaStoreStats()
	return storeRec{
		Misses: st.Misses, Evictions: st.Evictions, InitBuilds: st.InitBuilds,
		SpillReadBytes: st.SpillReadBytes, SpillWriteBytes: st.SpillWriteBytes,
		SpillRecords: st.SpillRecords, ReplicaFaults: st.ReplicaFaults,
		ResidentStateBytes: srv.ResidentStateBytes(), LiveReplicas: srv.LiveReplicas(),
		HitRate: st.HitRate(), PrefetchOverlap: st.PrefetchOverlap(),
	}
}

// archNumel returns the element count of each architecture's state dict:
// what one upload or download of that architecture carries.
func (w workload) archNumel() (map[string]int, error) {
	out := make(map[string]int, len(w.archs))
	for _, arch := range w.archs {
		m, err := model.Build(arch, model.Shape{C: 1, H: 16, W: 16}, 10, tensor.NewRand(1))
		if err != nil {
			return nil, err
		}
		out[arch] = nn.CaptureState(m).Numel()
	}
	return out, nil
}

// checkRounds runs the per-round accounting checks of an in-process
// history: every sampled device is absorbed, dropped or injected, and
// the wire bytes are exactly the absorbed devices' element counts at the
// codec's width, each way.
func (p *passResult) checkRounds(w workload, hist fed.History) error {
	numel, err := w.archNumel()
	if err != nil {
		return err
	}
	cdc, err := codec.Get(w.cfg.StateCodec)
	if err != nil {
		return err
	}
	accounted, wire := true, true
	for _, m := range hist {
		if len(m.Active) != m.Absorbed+len(m.Dropped)+len(m.Injected) {
			accounted = false
		}
		out := make(map[int]bool, len(m.Dropped)+len(m.Injected))
		for _, id := range m.Dropped {
			out[id] = true
		}
		for _, id := range m.Injected {
			out[id] = true
		}
		var want int64
		for _, id := range m.Active {
			if !out[id] {
				want += fed.WireBytes(numel[w.arch(id)], cdc.Width())
			}
		}
		if m.BytesUp != want || m.BytesDown != want {
			wire = false
		}
	}
	if !accounted {
		p.fail("round-accounting")
	}
	if !wire {
		p.fail("wire-bytes")
	}
	return nil
}

// setupInProcess builds an in-process federation and measures it: dataset
// synthesis, partition and fedzkt.New.
func setupInProcess(w workload, seed uint64, rounds int, spillDir string) (*fedzkt.Coordinator, *passResult, error) {
	t := startSetup()
	ds, shards := w.inputs(seed)
	co, err := fedzkt.New(w.config(seed, rounds, spillDir), ds, w.archs, shards)
	if err != nil {
		return nil, nil, fmt.Errorf("building %s: %w", w.name, err)
	}
	return co, t.stop(), nil
}

// runPass is one untraced pass: build the federation, call the public
// Run once, report.
func runPass(ctx context.Context, w workload, seed uint64, rounds int, scratch string) (*passResult, error) {
	if w.tcp {
		return runTCPPass(ctx, w, seed, rounds)
	}
	co, p, err := setupInProcess(w, seed, rounds, scratch)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	before := snapshot()
	hist, err := co.Run(ctx)
	p.since(before)
	if err != nil {
		p.RunErr = err.Error()
	}
	p.record(hist)
	if err := p.checkRounds(w, hist); err != nil {
		return nil, err
	}
	p.Store = storeOf(co.Server())
	p.PeakRSSMB = peakRSSMB()
	return p, nil
}

// tcpFederation is a started loopback federation: the server's Run is in
// flight and every device session is registered.
type tcpFederation struct {
	srv     *transport.Server
	setup   *passResult   // carries the set-up's cost
	done    chan struct{} // closed when Run returned
	hist    fed.History
	runErr  error
	devices sync.WaitGroup
	devErr  chan error
	outside []time.Time // round-summary arrivals at device 0
}

// startTCP builds the transport server, starts Run, and dials the
// devices strictly one after another: the next device dials only once
// the server has opened the previous one's session, so ids follow dial
// order and wire bytes repeat run to run (dialling all at once scrambles
// Hello order and moves wire bytes by ~3%).
func startTCP(ctx context.Context, w workload, seed uint64, rounds int) (*tcpFederation, error) {
	t := startSetup()
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:       "127.0.0.1:0",
		NumDevices: w.devices,
		Sizes:      w.sizes,
		Fed:        w.config(seed, rounds, ""),
		IOTimeout:  time.Minute,
	})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", w.name, err)
	}
	f := &tcpFederation{srv: srv, done: make(chan struct{}), devErr: make(chan error, w.devices)}
	go func() {
		defer close(f.done)
		f.hist, f.runErr = srv.Run(ctx)
	}()
	for i := 0; i < w.devices; i++ {
		cfg := transport.DeviceConfig{Addr: srv.Addr(), Arch: w.arch(i), IOTimeout: time.Minute}
		if i == 0 {
			// Called on device 0's session goroutine only; read after
			// devices.Wait.
			cfg.OnRoundSummary = func(transport.RoundSummary) { f.outside = append(f.outside, time.Now()) }
		}
		f.devices.Add(1)
		go func() {
			defer f.devices.Done()
			if _, _, err := transport.RunDevice(ctx, cfg); err != nil {
				f.devErr <- err
			}
		}()
		for len(srv.SessionStats()) <= i {
			select {
			case <-f.done:
				return nil, fmt.Errorf("building %s: server stopped during registration: %w", w.name, f.runErr)
			case err := <-f.devErr:
				srv.Close()
				return nil, fmt.Errorf("building %s: device %d: %w", w.name, i, err)
			case <-time.After(time.Millisecond):
			}
		}
	}
	f.setup = t.stop()
	return f, nil
}

// wait blocks until Run and every device session have returned.
func (f *tcpFederation) wait() {
	<-f.done
	f.devices.Wait()
}

// runTCPPass is the untraced pass of the loopback workload. Set-up ends
// when the last device's session is open; Run (already accepting) is
// measured from there.
func runTCPPass(ctx context.Context, w workload, seed uint64, rounds int) (*passResult, error) {
	f, err := startTCP(ctx, w, seed, rounds)
	if err != nil {
		return nil, err
	}
	p := f.setup
	before := snapshot()
	f.wait()
	p.since(before)
	if f.runErr != nil {
		p.RunErr = f.runErr.Error()
	}
	select {
	case err := <-f.devErr:
		p.RunErr = "device: " + err.Error()
	default:
	}
	p.record(f.hist)
	for i := 1; i < len(f.outside); i++ {
		p.OutsideMs = append(p.OutsideMs, ms(f.outside[i].Sub(f.outside[i-1])))
	}
	histUp, histDown := f.hist.TotalBytes()
	complete := len(f.hist) == rounds
	for _, m := range f.hist {
		if m.Absorbed != len(m.Active) || len(m.Dropped) != 0 || m.DroppedUploads != 0 {
			complete = false
		}
	}
	var sessionUp, sessionDown int64
	for _, st := range f.srv.SessionStats() {
		p.Resumes += st.Resumes
		sessionUp += st.BytesUp
		sessionDown += st.BytesDown
	}
	if !complete {
		p.fail("tcp-rounds-complete")
	}
	if p.Resumes != 0 {
		p.fail("tcp-no-resumes")
	}
	if sessionUp != histUp || sessionDown != histDown {
		p.fail("tcp-session-wire-totals")
	}
	p.PeakRSSMB = peakRSSMB()
	return p, nil
}

// A set-up child alternates the reference work with batches of set-ups:
// ref, batch, ref, batch, … ref. A batch repeats the set-up until it has
// used minBatchCPU (a 20 ms set-up read once is mostly clock tick).
const (
	setupBatches = 5
	minBatchCPU  = 0.25 // seconds
	refBlocks    = 120
	// refNominalS is what refWork(refBlocks) costs on the sizing host in
	// its fast state; scaling by it keeps setup_s in seconds.
	refNominalS = 0.15
)

var (
	refA, refB = make([]float64, 1<<18), make([]float64, 1<<18)
	refSink    float64
)

// refWork is a fixed piece of work of the benchmark's own, made of what a
// set-up mostly is — PCG variates written to memory, and copies — and
// returns the CPU seconds it took. It allocates nothing, so the state of
// the heap does not reach it. The host runs the same instructions up to
// 1.5× slower from one ten minutes to the next; refWork slows with the
// set-up, so their ratio moves a third as much as the set-up's own CPU
// time (README.md, "Why no time metric but setup_s is end to end").
func refWork(blocks int) float64 {
	start := cpuSeconds()
	rng := rand.New(rand.NewPCG(1, 2))
	for k := 0; k < blocks; k++ {
		for i := range refA {
			refA[i] = rng.Float64()*2 - 1
		}
		copy(refB, refA)
		refSink += refB[k]
	}
	return cpuSeconds() - start
}

// runSetupOnly measures the set-up alone, in a fresh process. Each batch
// yields the mean CPU seconds of one set-up divided by the reference work
// measured right before and right after it; the child reports the median
// batch, scaled back to seconds by refNominalS. A collection before every
// measurement starts each from the same heap: without it the collector's
// share of a set-up depends on what the previous one left behind.
func runSetupOnly(ctx context.Context, w workload, seed uint64, rounds int, scratch string) (*passResult, error) {
	batches, blocks := setupBatches, refBlocks
	if w.quick {
		batches, blocks = 1, 1
	}
	ref := func() float64 {
		runtime.GC()
		return refWork(blocks)
	}
	scaled := make([]float64, 0, batches)
	before := ref()
	for len(scaled) < batches {
		runtime.GC()
		cpu, n := 0.0, 0
		for n == 0 || (!w.quick && cpu < minBatchCPU) {
			p, err := setupOnce(ctx, w, seed, rounds, scratch)
			if err != nil {
				return nil, err
			}
			cpu += p.SetupCPUS
			n++
		}
		after := ref()
		scaled = append(scaled, cpu/float64(n)/((before+after)/2))
		before = after
	}
	nominal := refNominalS * float64(blocks) / refBlocks
	return &passResult{SetupS: median(scaled) * nominal}, nil
}

// setupOnce builds the federation, measures that, and tears it down.
func setupOnce(ctx context.Context, w workload, seed uint64, rounds int, scratch string) (*passResult, error) {
	if w.tcp {
		ctx, cancel := context.WithCancel(ctx)
		f, err := startTCP(ctx, w, seed, rounds)
		cancel() // Run and the device sessions stop at the cancelled context
		if err != nil {
			return nil, err
		}
		f.wait()
		return f.setup, nil
	}
	co, p, err := setupInProcess(w, seed, rounds, scratch)
	if err != nil {
		return nil, err
	}
	return p, co.Close()
}
