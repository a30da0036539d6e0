package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/data"
)

// resultLine is the result object the benchmark contract fixes: exactly
// these four keys, every metric a value with its unit.
type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  *string  `json:"unit"`
	} `json:"metrics"`
}

// lastLine decodes the final line of a run's output, rejecting unknown
// keys.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r resultLine
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if r.Correct == nil || r.Attempted == nil || r.Failed == nil || r.Metrics == nil {
		t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
	}
	return r
}

// toy shrinks a workload to smoke-test size (≤ 64 devices) while keeping
// every mechanism it exercises switched on: the spill store still evicts,
// the pipeline still overlaps, the transport still frames.
func (w workload) toy() workload {
	if w.devices > 64 {
		w.devices = 64
		w.sizes = data.Sizes{TrainPerClass: 16, TestPerClass: 4}
		w.cfg.SampleK = 8
		w.cfg.TeachersPerIter = 4
		w.cfg.EvalDevices = 8
		if w.cfg.HotSet > 0 {
			w.cfg.HotSet = 2
			w.cfg.ReplicaShards = 2
		}
	} else {
		w.sizes = data.Sizes{TrainPerClass: 8, TestPerClass: 4}
	}
	w.rounds = 4
	w.cfg.DistillIters, w.cfg.StudentSteps, w.cfg.DistillBatch = 1, 1, 4
	w.minDeviceAcc = 0 // four toy rounds do not learn
	w.quick = true
	return w
}

// TestSmokeEveryWorkload runs every workload's untraced and traced code
// path at toy size (≤ 64 devices, 4 rounds: two warm-up, one measured,
// one evaluating) with the children in-process, and validates what the
// command would print.
func TestSmokeEveryWorkload(t *testing.T) {
	root := t.TempDir()
	inProcess := func(ctx context.Context, spec childSpec) (*childResult, error) {
		return runChild(ctx, spec, filepath.Join(root, "scratch"))
	}
	for _, full := range workloads {
		w := full.toy()
		for _, traced := range []bool{false, true} {
			name := w.name + "/end_to_end"
			defs := endToEnd
			if traced {
				name, defs = w.name+"/per_layer", perLayer
			}
			t.Run(name, func(t *testing.T) {
				traceDir := filepath.Join(root, "traces")
				// Two passes end to end, so the cross-pass checks run; one
				// beside the traced pass, to keep the test short.
				passes := defaultPasses
				if traced {
					passes = 1
				}
				o, err := runWorkload(context.Background(), w, 42, 1, passes, traced, traceDir, inProcess)
				if err != nil {
					t.Fatal(err)
				}
				if len(o.failed) > 0 {
					t.Errorf("correctness checks failed: %v", o.failed)
				}
				var out bytes.Buffer
				if err := o.print(&out, w, traced); err != nil {
					t.Fatal(err)
				}
				r := lastLine(t, out.String())
				if !*r.Correct {
					t.Error("result says not correct")
				}
				if *r.Attempted < 1 || *r.Failed != 0 {
					t.Errorf("attempted %d, failed %d; want ≥ 1 and 0", *r.Attempted, *r.Failed)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d defined", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit == nil {
						t.Errorf("metric %s missing or incomplete", d.name)
						continue
					}
					if *m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, *m.Unit, d.unit)
					}
					// End-to-end metrics are never zero: the driver reads
					// a zero as "not measured".
					if !traced && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, *m.Value)
					}
				}
				if traced {
					checkTracedValues(t, w, o, filepath.Join(traceDir, w.name+".trace.json"))
				}
			})
		}
	}
	if left, _ := os.ReadDir(filepath.Join(root, "scratch")); len(left) != 0 {
		t.Errorf("%d scratch directories left behind", len(left))
	}
}

// checkTracedValues pins the per-layer values whose sign or size the
// workload definition fixes, at any scale.
func checkTracedValues(t *testing.T, w workload, o *outcome, traceFile string) {
	t.Helper()
	v := o.values
	for _, name := range []string{
		"trace.round_ms", "fedzkt.distill_ms", "sched.local_phase_ms", "fed.local_update_ms",
		"fedzkt.eval_ms", "tensor.matmul128_us", "codec.encode_mb_per_s", "transport.frame_rtt_us", "obs.span_ns",
	} {
		if v[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, v[name])
		}
	}
	spill := w.cfg.ReplicaStore == "spill"
	for _, name := range []string{
		"fed.materialise_ms", "fedzkt.store_evictions_per_round", "codec.spill_write_mb_per_round",
		"fedzkt.replica_payload_cold_ms",
	} {
		if (v[name] > 0) != spill {
			t.Errorf("%s = %v on a workload with spill store = %v", name, v[name], spill)
		}
	}
	if (v["transport.round_ms_outside_p50"] > 0) != w.tcp {
		t.Errorf("transport.round_ms_outside_p50 = %v on a workload with tcp = %v", v["transport.round_ms_outside_p50"], w.tcp)
	}
	if (v["engine.download_stall_ms_per_round"]+v["engine.upload_stall_ms_per_round"] > 0) != (w.cfg.PipelineDepth > 0) {
		t.Errorf("pipeline stalls %v/%v at depth %d", v["engine.download_stall_ms_per_round"],
			v["engine.upload_stall_ms_per_round"], w.cfg.PipelineDepth)
	}
	b, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("no Chrome trace written: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace file is not a Chrome trace with events: %v", err)
	}
}

// A workload that cannot be built is an error naming it, not a panic.
func TestUnbuildableWorkload(t *testing.T) {
	w := workloads[0].toy()
	w.archs = []string{"no-such-architecture"}
	_, err := runChild(context.Background(), childSpec{"pass", w, 1, 4, ""}, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), w.name) {
		t.Errorf("err = %v, want one naming %s", err, w.name)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such-workload"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := run([]string{"-child", "pass", "-workload", "paper10_full"}, &stdout, &stderr); code == 0 {
		t.Error("child without -rounds exited 0")
	}
}
