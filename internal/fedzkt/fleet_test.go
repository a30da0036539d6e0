package fedzkt

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/fed"
)

// goid is the calling goroutine's id, for telling the engine's stages
// apart in a call log.
func goid() uint64 {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseUint(fields[1], 10, 64)
	return id
}

// fleetCall is one logged Fleet call: which method, for which round, on
// which goroutine.
type fleetCall struct {
	call  string
	round int
	goid  uint64
}

// recordingFleet is a Fleet with no devices behind it. Each local phase
// hands back a canned valid upload for device 0 (so every round absorbs,
// publishes and delivers exactly one download) and garbage for device 1
// (refused by the server, so UploadRejected marks the moment the round is
// absorbed). Every call is logged; hook, when set, may fail or cancel any
// of them.
type recordingFleet struct {
	upload0 []byte
	hook    func(call string, round int) error

	mu    sync.Mutex
	calls []fleetCall
	// atRest is the last delivered round: the one a depth-0
	// EvaluateDevices call belongs to.
	atRest int
}

func (f *recordingFleet) log(call string, round int) error {
	f.mu.Lock()
	if call == "deliver" {
		f.atRest = round
	} else if call == "evaluate" {
		round = f.atRest
	}
	f.calls = append(f.calls, fleetCall{call, round, goid()})
	f.mu.Unlock()
	if f.hook != nil {
		return f.hook(call, round)
	}
	return nil
}

// index returns the log position of the call for round (-1 if absent).
func (f *recordingFleet) index(call string, round int) int {
	for i, c := range f.calls {
		if c.call == call && c.round == round {
			return i
		}
	}
	return -1
}

func (f *recordingFleet) LocalPhase(_ context.Context, round int, _ []int, _ *fed.RoundMetrics) ([]Upload, error) {
	return []Upload{
		{ID: 0, Round: round, Payload: Payload{Enc: f.upload0}},
		{ID: 1, Round: round, Payload: Payload{Enc: []byte("not a container")}},
	}, f.log("local", round)
}

func (f *recordingFleet) UploadRejected(u Upload, _ error) error { return f.log("absorb", u.Round) }
func (f *recordingFleet) Deliver(round, _ int, _ Payload) error  { return f.log("deliver", round) }
func (f *recordingFleet) CloseRound(m *fed.RoundMetrics) error   { return f.log("close", m.Round) }
func (f *recordingFleet) EvaluateDevices(ids []int) ([]float64, error) {
	return make([]float64, len(ids)), f.log("evaluate", 0)
}

// fakeFederation builds a five-round engine over a two-replica server and
// a recordingFleet.
func fakeFederation(t *testing.T, depth int, mutate func(*Config)) (*Engine, *recordingFleet) {
	t.Helper()
	cfg := tinyConfig()
	cfg.Rounds, cfg.DistillIters, cfg.PipelineDepth = 5, 1, depth
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	for range 2 {
		if _, err := srv.Register("mlp", nil); err != nil {
			t.Fatal(err)
		}
	}
	f := &recordingFleet{}
	if f.upload0, _, err = srv.ReplicaPayload(0); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(srv, tinyDataset(3), f)
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

// TestEngineStageOrder pins the stage machine's schedule on a fleet that
// only records: download r is delivered before local phase r+1+depth and
// never before local phase r+depth, round r is absorbed only after round
// r−1 has run its whole server stage (so absorb r cannot overlap distill
// r−1), and at depth 0 every fleet call and crash site runs on the
// caller's goroutine.
func TestEngineStageOrder(t *testing.T) {
	for _, depth := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			var crashMu sync.Mutex
			var crashGoids []uint64
			prev := chaos.SetCrashHandler(func(string) {
				crashMu.Lock()
				crashGoids = append(crashGoids, goid())
				crashMu.Unlock()
			})
			defer chaos.SetCrashHandler(prev)
			plan, err := chaos.Parse("seed=1;crash.round.start=every:1;crash.round.end=every:1")
			if err != nil {
				t.Fatal(err)
			}
			chaos.Activate(plan)
			defer chaos.Deactivate()

			e, f := fakeFederation(t, depth, nil)
			hist, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rounds := e.cfg.Rounds
			if len(hist) != rounds {
				t.Fatalf("finalised %d rounds, want %d", len(hist), rounds)
			}
			for _, m := range hist {
				if m.Absorbed != 1 || m.DroppedUploads != 1 || len(m.Dropped) != 1 || m.Dropped[0] != 1 {
					t.Errorf("round %d books absorbed=%d droppedUploads=%d dropped=%v, want 1, 1, [1]",
						m.Round, m.Absorbed, m.DroppedUploads, m.Dropped)
				}
			}
			for r := 1; r <= rounds; r++ {
				d := f.index("deliver", r)
				if d < 0 {
					t.Fatalf("download %d never delivered", r)
				}
				if after := f.index("local", min(r+depth, rounds)); d < after {
					t.Errorf("download %d delivered before local phase %d", r, min(r+depth, rounds))
				}
				if r+1+depth <= rounds && d > f.index("local", r+1+depth) {
					t.Errorf("download %d delivered after local phase %d started", r, r+1+depth)
				}
				if r > 1 && f.index("absorb", r) < f.index("close", r-1) {
					t.Errorf("round %d absorbed before round %d closed", r, r-1)
				}
			}
			if len(crashGoids) != 2*rounds {
				t.Errorf("%d crash sites fired, want %d", len(crashGoids), 2*rounds)
			}
			if depth == 0 {
				me := goid()
				for _, c := range f.calls {
					if c.goid != me {
						t.Fatalf("depth 0 ran %s %d on another goroutine", c.call, c.round)
					}
				}
				for _, g := range crashGoids {
					if g != me {
						t.Fatal("depth 0 fired a crash site on another goroutine")
					}
				}
			}
		})
	}
}

// TestEngineStopsAtAnyStage: a fleet error, a server-side error or a
// cancellation at any stage of round 2 ends the run with the wrapped cause
// and a finalised prefix — contiguous rounds, the cursor on the first
// unfinalised one.
func TestEngineStopsAtAnyStage(t *testing.T) {
	boom := errors.New("boom")
	for _, depth := range []int{0, 1, 2} {
		for _, call := range []string{"local", "absorb", "deliver", "evaluate", "close", "checkpoint"} {
			if call == "evaluate" && depth > 0 {
				continue // replicas are evaluated; the fleet is not asked
			}
			for _, how := range []string{"error", "cancel"} {
				if call == "checkpoint" && how == "cancel" {
					continue
				}
				t.Run(fmt.Sprintf("depth%d/%s/%s", depth, call, how), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					e, f := fakeFederation(t, depth, func(c *Config) {
						if call == "checkpoint" {
							// A regular file where the directory should be.
							c.CheckpointDir = filepath.Join(t.TempDir(), "taken")
							if err := os.WriteFile(c.CheckpointDir, nil, 0o600); err != nil {
								t.Fatal(err)
							}
						}
					})
					f.hook = func(c string, round int) error {
						if c != call || round != 2 {
							return nil
						}
						if how == "cancel" {
							cancel()
							return nil
						}
						return boom
					}
					hist, err := e.Run(ctx)
					switch {
					case call == "checkpoint":
						if err == nil {
							t.Fatal("want the checkpoint write error")
						}
					case how == "cancel":
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("error %v does not wrap context.Canceled", err)
						}
					default:
						if !errors.Is(err, boom) {
							t.Fatalf("error %v does not wrap the fleet's", err)
						}
					}
					if len(hist) >= e.cfg.Rounds {
						t.Fatalf("stopped run finalised all %d rounds", len(hist))
					}
					for i, m := range hist {
						if m.Round != i+1 {
							t.Fatalf("history position %d holds round %d", i, m.Round)
						}
					}
					if e.nextRound != len(hist)+1 || len(e.hist) != len(hist) {
						t.Fatalf("cursor %d, cumulative history %d, returned history %d", e.nextRound, len(e.hist), len(hist))
					}
					if depth == 0 && how == "error" && call != "checkpoint" && len(hist) != 1 {
						t.Fatalf("depth 0 finalised %d rounds before the round-2 failure, want 1", len(hist))
					}
				})
			}
		}
	}
}
