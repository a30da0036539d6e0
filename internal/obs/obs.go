// Package obs is the unified observability substrate: a typed,
// low-overhead metrics registry (counters, gauges, log-scale histograms;
// atomic hot paths, zero allocation after registration), a phase-span
// tracer recording round/stage/shard spans into a bounded in-memory ring
// exported as Chrome trace_event JSON, a live HTTP introspection handler
// (Prometheus text, expvar-style JSON, the trace dump, net/http/pprof),
// and the shared per-round report renderer the examples print.
//
// The package imports nothing from the rest of the repository, so every
// layer — sched pool, federation runtime, server core, transport — can
// depend on it without cycles. Instruments are freestanding values whose
// zero value is ready to use; a Registry only binds names to instruments
// for export, and registration is last-wins so a fresh coordinator in the
// same process simply takes over the names of a finished one.
//
// Timestamps come from each Tracer's injectable clock and are never part
// of run fingerprints, so instrumented runs stay byte-identical to
// uninstrumented ones and deterministic under test.
package obs

import "sync/atomic"

// enabled gates span recording (and any other non-trivial instrumentation
// cost) process-wide. Counters and gauges are single atomic ops and stay
// live regardless. Default on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled toggles span recording process-wide. The uninstrumented
// benchmark arms switch it off to measure the substrate's overhead; the
// metrics registry's atomic counters are unaffected.
func SetEnabled(on bool) { enabled.Store(on) }

// The process-wide default registry and tracer: the binaries' live
// introspection endpoint serves exactly these, and the instrumented
// layers register into them unless handed their own.
var (
	defaultRegistry = NewRegistry()
	defaultTracer   = NewTracer(DefaultTraceCapacity)
)

// DefaultTraceCapacity bounds the default tracer's span ring. At roughly
// a dozen spans per round it covers hours of rounds; older spans fall off
// the back of the ring.
const DefaultTraceCapacity = 16384

// Default returns the process-wide metrics registry.
func Default() *Registry { return defaultRegistry }

// DefaultTracer returns the process-wide phase-span tracer.
func DefaultTracer() *Tracer { return defaultTracer }
