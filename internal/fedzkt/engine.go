package fedzkt

// This file is the staged pipelined round engine (Config.PipelineDepth ≥ 1).
//
// The synchronous coordinator is a strict barrier: localPhase → absorb →
// distill → download, one round at a time, so the scheduler's worker pool
// sits idle for the whole server phase. The pipelined engine splits the
// round into two stages running on separate goroutines, connected by
// bounded channels:
//
//	local stage   (caller goroutine): sample → localPhase → stage uploads
//	server stage  (one goroutine):    absorb → distill → publish downloads
//	                                  → evaluate → finalise metrics
//
// The uploads channel IS the absorb staging buffer: uploads for round r+1
// sit in it until the server stage has finished distilling round r, so
// they can never race the round-r teacher ensemble. Snapshot isolation
// between the stages follows from the existing data flow — devices train
// on their own modules, the server mutates cohort replica slots, and both
// uploads and downloads are independent copies (encoded payloads, or
// dense copies in recycled buffers on the identity fast path) handed
// across a channel.
//
// Bounded staleness: round r's local phase trains on the parameters
// published after round r−1−depth, enforced by waiting for exactly that
// download before launching the round — never more, even when the server
// runs ahead. Download application points are therefore a pure function
// of (depth, round), which is what makes the engine's metrics
// byte-identical across worker counts for a fixed depth and seed.
//
// Evaluation runs in the server stage against the cohort replica states
// (Server.EvaluateReplicas): when round r's metrics are finalised the
// device models may already be training round r+1, but the replica after
// round r's transfer-back is exactly the state round r's download
// publishes.

import (
	"context"
	"fmt"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/fed"
)

// uploadBatch is one round's staged hand-off from the local stage to the
// server stage: the partially filled round metrics plus the completed
// devices' uploaded states in wire form (ascending id).
type uploadBatch struct {
	round     int
	start     time.Time // when the round's local phase began
	m         fed.RoundMetrics
	completed []int
	uploads   []statePayload
}

// downloadBatch is one round's published downloads: each completing
// device's replica slot after the round's transfer-back, in wire form
// (see statePayload — an independent copy either way, so later absorbs
// cannot race a batch sitting in the channel).
type downloadBatch struct {
	round  int
	ids    []int
	states []statePayload
}

// runPipelined executes the staged round engine with cfg.PipelineDepth
// rounds of bounded staleness. The returned history contains every
// finalised round in order; on cancellation or stage failure the wrapped
// first error is returned alongside that consistent prefix.
func (c *Coordinator) runPipelined(ctx context.Context) (fed.History, error) {
	cfg := c.cfg
	depth := cfg.PipelineDepth
	startRound := c.nextRound
	if startRound > cfg.Rounds {
		return fed.History{}, nil
	}

	// runCtx lets either stage abort the other: the server stage cancels
	// it on error, and a user cancellation of ctx propagates through it
	// into mid-phase distillation and queued device tasks.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Capacity depth+1 covers the maximum number of rounds the staleness
	// rule allows in flight, so neither stage blocks on a healthy peer.
	uploads := make(chan uploadBatch, depth+1)
	downloads := make(chan downloadBatch, depth+1)

	var (
		hist      fed.History
		serverErr error
		done      = make(chan struct{})
	)

	// Server stage: absorb → distill → publish downloads → evaluate →
	// finalise metrics, strictly in round order. It is the only goroutine
	// touching the server (and appending to hist) while running; the done
	// channel publishes both to the caller.
	go func() {
		defer close(done)
		defer close(downloads)
		for {
			waitStart := time.Now()
			ub, ok := <-uploads
			if !ok {
				return
			}
			m := ub.m
			m.UploadStall = time.Since(waitStart)
			m.Absorbed = len(ub.completed)
			if err := c.absorbUploads(ub.completed, ub.uploads); err != nil {
				serverErr = err
				cancel()
				return
			}
			serverStart := time.Now()
			// The server stage renders on its own trace track (tid 1):
			// under the pipeline its spans overlap the local stage's.
			distillSpan := tracer().Begin("fed", "server_distill").WithRound(ub.round).WithTID(1)
			gn, err := c.server.Distill(runCtx, ub.round)
			distillSpan.End()
			if err != nil {
				serverErr = fmt.Errorf("fedzkt: round %d: %w", ub.round, err)
				cancel()
				return
			}
			m.ServerElapsed = time.Since(serverStart)
			m.InputGradNorm = gn

			db := downloadBatch{round: ub.round, ids: ub.completed}
			for _, id := range ub.completed {
				p, numel, err := c.publishDownload(id)
				if err != nil {
					serverErr = err
					cancel()
					return
				}
				db.states = append(db.states, p)
				m.BytesDown += fed.WireBytes(numel, c.codec.Width())
			}
			if ub.round%cfg.EvalEvery == 0 || ub.round == cfg.Rounds {
				evalSpan := tracer().Begin("fed", "evaluate").WithRound(ub.round).WithTID(1)
				m.GlobalAcc = c.server.EvaluateGlobal(c.ds)
				m.DeviceAcc = c.server.EvaluateReplicaSubset(c.ds, 64, cfg.poolWorkers(), c.evalIDs())
				evalSpan.End()
				m.MeanDeviceAcc = fed.Mean(m.DeviceAcc)
			}
			c.finishRoundStats(&m)
			m.Elapsed = time.Since(ub.start)
			c.metrics.observeRound(&m)
			hist = append(hist, m)
			// Finalise the round for the durability layer: the cumulative
			// history and round cursor advance here (the server stage owns
			// both while running; the post-done assignment below agrees),
			// so a mid-run durable checkpoint snapshots a consistent
			// boundary. A pipelined resume is consistent but not a
			// bit-exact replay: devices ahead of the cursor are reconciled
			// back to their replicas on resume (see Run).
			c.hist = append(c.hist, m)
			c.nextRound = ub.round + 1
			if err := c.maybeCheckpoint(ub.round); err != nil {
				serverErr = err
				cancel()
				return
			}
			chaos.Crash(chaos.SiteCrashRoundEnd)
			// The local stage drains this channel until it is closed, so
			// the send cannot block indefinitely.
			downloads <- db
		}
	}()

	// Local stage (caller goroutine): wait for the staleness barrier,
	// sample, run the local phase, stage the uploads.
	roundRNG := c.roundSampler()
	lastApplied := startRound - 1
	var (
		localErr   error
		pipeBroken bool
	)
	for round := startRound; round <= cfg.Rounds; round++ {
		chaos.Crash(chaos.SiteCrashRoundStart)
		m := fed.RoundMetrics{Round: round}

		// Bounded-staleness barrier: this round may only train on the
		// parameters published after round−1−depth, so wait for exactly
		// that download (applying every earlier one on the way, in round
		// order — the application points depend only on depth and round,
		// never on timing).
		need := round - 1 - depth
		waitStart := time.Now()
		for lastApplied < need {
			db, ok := <-downloads
			if !ok {
				pipeBroken = true
				break
			}
			if err := c.applyDownloads(db); err != nil {
				localErr = err
				pipeBroken = true
				break
			}
			lastApplied = db.round
		}
		if pipeBroken {
			break
		}
		m.DownloadStall = time.Since(waitStart)

		if err := ctx.Err(); err != nil {
			localErr = fmt.Errorf("fedzkt: run cancelled at round %d: %w", round, err)
			break
		}
		active := c.sampler.Sample(len(c.devices), roundRNG)
		m.Active = active
		start := time.Now()
		localSpan := tracer().Begin("fed", "local_phase").WithRound(round)
		completed, ups, err := c.localPhase(runCtx, round, active, &m)
		localSpan.End()
		if err != nil {
			localErr = err
			break
		}
		m.LocalElapsed = time.Since(start)
		if err := ctx.Err(); err != nil {
			localErr = fmt.Errorf("fedzkt: run cancelled at round %d: %w", round, err)
			break
		}
		select {
		case uploads <- uploadBatch{round: round, start: start, m: m, completed: completed, uploads: ups}:
		case <-runCtx.Done():
			pipeBroken = true
		}
		if pipeBroken {
			break
		}
	}
	close(uploads)

	// Drain: apply every download the server still publishes, so a clean
	// run ends with all devices holding the freshest parameters and the
	// server stage's sends never block against an exited peer.
	for db := range downloads {
		if localErr == nil {
			if err := c.applyDownloads(db); err != nil {
				localErr = err
			}
		}
		lastApplied = db.round
	}
	<-done

	c.nextRound = startRound + len(hist)
	if localErr != nil {
		return hist, localErr
	}
	if serverErr != nil {
		return hist, serverErr
	}
	if err := ctx.Err(); err != nil {
		return hist, fmt.Errorf("fedzkt: run cancelled at round %d: %w", c.nextRound, err)
	}
	return hist, nil
}
