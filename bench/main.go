// Command bench is the repository's benchmark: five named federations,
// each measured end to end through the public Run and, in a separate
// traced pass, layer by layer through the layers' public functions.
//
//	go run ./bench                                   # every workload, both modes
//	go run ./bench -workload fleet1k_sync -trace 0   # one workload's end-to-end metrics
//	bash bench/run.sh --workload tcp8_loopback --seed 7 --seconds 12 --trace 1
//
// See README.md in this directory for the metrics, the workloads, the
// run shape and how to phrase a claim in these names.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

const (
	defaultPasses = 2
	tracedShare   = 2.0 / 3
	childDeadline = 3 // × the child's expected time
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or \"all\"")
		seed     = fs.Uint64("seed", 42, "seed of every generated input: data, partitions, sampling, init")
		seconds  = fs.Int("seconds", refSeconds, "length of one run's measurement; the two passes share it")
		trace    = fs.String("trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics from a traced pass, both")
		passes   = fs.Int("passes", defaultPasses, "untraced passes per run; timing metrics take the better one")
		traceDir = fs.String("trace-dir", "", "write each traced pass's spans here as Chrome trace JSON")
		child    = fs.String("child", "", "internal: run one child (setup, pass or trace) and print its JSON")
		rounds   = fs.Int("rounds", 0, "internal: rounds of the child's pass")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child, *name, *seed, *rounds, *traceDir, stdout, stderr)
	}
	if *seconds < 1 || *passes < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -passes must be at least 1")
		return 2
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spawn := func(ctx context.Context, spec childSpec) (*childResult, error) {
		return spawnChild(ctx, exe, spec, stderr)
	}
	status := 0
	for _, w := range selected {
		for _, traced := range modes {
			o, err := runWorkload(context.Background(), w, *seed, *seconds, *passes, traced, *traceDir, spawn)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if err := o.print(stdout, w, traced); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			for _, f := range o.failed {
				fmt.Fprintf(stderr, "bench: %s: correctness check failed: %s\n", w.name, f)
				status = 1
			}
		}
	}
	return status
}

// childSpec is one child process's job.
type childSpec struct {
	mode     string // "setup", "pass" or "trace"
	workload workload
	seed     uint64
	rounds   int
	traceDir string
}

// childResult is the one JSON line a child prints.
type childResult struct {
	Pass  *passResult  `json:",omitempty"`
	Trace *traceResult `json:",omitempty"`
}

// runner runs one child job; the command spawns a process per job, the
// smoke test runs them in-process.
type runner func(context.Context, childSpec) (*childResult, error)

// scratchRoot is where children keep spill files and probe files: inside
// the checkout, because the benchmark writes nowhere else.
const scratchRoot = ".bench_build/tmp"

// runChild does a child's work in this process, in a fresh directory
// under root that is removed on every exit path.
func runChild(ctx context.Context, spec childSpec, root string) (res *childResult, err error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(root, "fedzkt-bench-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(scratch); err == nil {
			err = rmErr
		}
	}()
	res = &childResult{}
	switch spec.mode {
	case "setup":
		res.Pass, err = runSetupOnly(ctx, spec.workload, spec.seed, spec.rounds, scratch)
	case "pass":
		res.Pass, err = runPass(ctx, spec.workload, spec.seed, spec.rounds, scratch)
	case "trace":
		res.Trace, err = runTraced(ctx, spec.workload, spec.seed, spec.rounds, scratch, spec.traceDir)
	default:
		err = fmt.Errorf("unknown child mode %q", spec.mode)
	}
	return res, err
}

func childMain(mode, name string, seed uint64, rounds int, traceDir string, stdout, stderr io.Writer) int {
	w, err := workloadByName(name)
	if err == nil && rounds < 1 {
		err = errors.New("-rounds must be positive")
	}
	var res *childResult
	if err == nil {
		res, err = runChild(context.Background(), childSpec{mode, w, seed, rounds, traceDir}, scratchRoot)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench child %s/%s: %v\n", name, mode, err)
		return 1
	}
	return 0
}

// spawnChild runs one child process to completion, or kills it at its
// deadline and says which workload hung. A child per pass is what makes
// peak RSS and GC state belong to that pass alone.
func spawnChild(ctx context.Context, exe string, spec childSpec, stderr io.Writer) (*childResult, error) {
	// Expected: the pass (a traced pass is shorter) plus set-up, the
	// final evaluation and process teardown.
	expected := time.Duration(float64(spec.rounds)/float64(spec.workload.rounds)*refSeconds/defaultPasses)*time.Second + 10*time.Second
	ctx, cancel := context.WithTimeout(ctx, childDeadline*expected)
	defer cancel()
	args := []string{"-child", spec.mode, "-workload", spec.workload.name,
		"-seed", strconv.FormatUint(spec.seed, 10), "-rounds", strconv.Itoa(spec.rounds)}
	if spec.traceDir != "" {
		args = append(args, "-trace-dir", spec.traceDir)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s child hung: killed after %s", spec.mode, childDeadline*expected)
	}
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", spec.mode, err)
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return nil, fmt.Errorf("%s child: decoding result: %w", spec.mode, err)
	}
	return &res, nil
}

// runWorkload is one run of one workload: the untraced passes (each a
// child), then either the set-up child (end-to-end mode) or the traced
// pass (per-layer mode), one child at a time.
func runWorkload(ctx context.Context, w workload, seed uint64, seconds, nPasses int, traced bool, traceDir string, child runner) (*outcome, error) {
	rounds := w.roundsFor(seconds)
	var passes []*passResult
	for i := 0; i < nPasses; i++ {
		res, err := child(ctx, childSpec{"pass", w, seed, rounds, ""})
		if err != nil {
			return nil, err
		}
		passes = append(passes, res.Pass)
	}
	o := assemble(w, passes)
	checkAccuracy(w, o, passes)
	if !traced {
		res, err := child(ctx, childSpec{"setup", w, seed, rounds, ""})
		if err != nil {
			return nil, err
		}
		endToEndMetrics(w, o, passes, res.Pass.SetupS)
		return o, nil
	}
	tracedRounds := max(int(float64(rounds)*tracedShare), 4)
	res, err := child(ctx, childSpec{"trace", w, seed, tracedRounds, traceDir})
	if err != nil {
		return nil, err
	}
	layerMetrics(w, o, passes, res.Trace)
	return o, nil
}

// print writes one line per metric — name value unit workload — then the
// findings, then the result object the benchmark contract asks for as
// the last line.
func (o *outcome) print(out io.Writer, w workload, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(o.failed) == 0, Attempted: o.attempted, Failed: o.failedOps, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not computed", w.name, d.name)
		}
		fmt.Fprintf(out, "%-40s %14.6g %-6s %s\n", d.name, v, d.unit, w.name)
		result.Metrics[d.name] = metric{v, d.unit}
	}
	sort.Strings(o.findings)
	for _, f := range o.findings {
		fmt.Fprintf(out, "finding: %s: %s\n", w.name, f)
	}
	return json.NewEncoder(out).Encode(result)
}
