package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, so a stats struct can embed one directly — the legacy
// atomic.Int64 call sites (Add, Load) compile unchanged.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge. The zero value is ready to use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: fixed log-scale (base-2) buckets. Bucket i
// covers [2^(histMinExp+i), 2^(histMinExp+i+1)), so with histMinExp = -30
// the grid spans ~1 ns to ~270 years when observing seconds, and 1 B to
// 8 GiB when observing bytes. Values below the grid land in the first
// bucket's cumulative counts; zero, negative, NaN and beyond-grid values
// are tracked in dedicated overflow counters so no observation is ever
// silently dropped.
const (
	histMinExp     = -30
	histNumBuckets = 64
)

// Histogram is a fixed-bucket log-scale histogram. The zero value is
// ready to use; Observe is a handful of atomic ops and never allocates.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum of finite observations, CAS-updated
	under   atomic.Int64  // 0 < v < 2^histMinExp
	nonPos  atomic.Int64  // v <= 0 (clamped into the first bucket's range)
	overOrN atomic.Int64  // v beyond the grid, +Inf, or NaN
	buckets [histNumBuckets]atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		for {
			old := h.sumBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + v)
			if h.sumBits.CompareAndSwap(old, next) {
				break
			}
		}
	}
	switch {
	case math.IsNaN(v) || math.IsInf(v, 1):
		h.overOrN.Add(1)
	case v <= 0:
		h.nonPos.Add(1)
	default:
		idx := math.Ilogb(v) - histMinExp
		switch {
		case idx < 0:
			h.under.Add(1)
		case idx >= histNumBuckets:
			h.overOrN.Add(1)
		default:
			h.buckets[idx].Add(1)
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count int64
	Sum   float64
	// Cumulative holds, per bucket upper bound, how many observations
	// were ≤ that bound (zero/negative/sub-grid observations included in
	// every bound; the +Inf bound equals Count).
	Bounds     []float64
	Cumulative []int64
}

// Snapshot copies the histogram's counters. Concurrent Observes may land
// between field reads; each individual counter is consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	cum := h.nonPos.Load() + h.under.Load()
	for i := 0; i < histNumBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 && cum == 0 {
			continue // leading empty buckets: keep the output compact
		}
		cum += n
		s.Bounds = append(s.Bounds, math.Ldexp(1, histMinExp+i+1))
		s.Cumulative = append(s.Cumulative, cum)
	}
	return s
}

// metricKind tags a registry entry's export shape.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one named export binding.
type metric struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	fn         func() float64
}

// value returns the metric's scalar value (counters, gauges, funcs).
func (m *metric) value() float64 {
	switch m.kind {
	case kindCounter:
		return float64(m.counter.Load())
	case kindGauge:
		return m.gauge.Load()
	default:
		return m.fn()
	}
}

// Registry binds metric names to instruments for export. Registration is
// last-wins: re-registering a name rebinds it in place (keeping its
// position), so a fresh run in the same process takes over the names of a
// finished one instead of erroring or double-reporting. Lookup and export
// take a read lock; the instruments themselves are lock-free.
type Registry struct {
	mu     sync.RWMutex
	order  []string
	byName map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register binds m under its name, last-wins.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[m.name]; !ok {
		r.order = append(r.order, m.name)
	}
	r.byName[m.name] = m
}

// RegisterCounter binds an existing counter under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
}

// RegisterGauge binds an existing gauge under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
}

// RegisterHistogram binds an existing histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
}

// RegisterCounterFunc exports fn's value as a counter read at scrape time
// — the bridge for legacy cumulative stats structs that remain the source
// of truth (pool stats, store stats, session stats).
func (r *Registry) RegisterCounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// RegisterGaugeFunc exports fn's value as a gauge read at scrape time.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// snapshot copies the export list under the read lock.
func (r *Registry) snapshot() []*metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*metric, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name])
	}
	return out
}

// promFloat formats a value the way Prometheus text exposition expects.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.snapshot() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind.promType()); err != nil {
			return err
		}
		if m.kind == kindHistogram {
			s := m.hist.Snapshot()
			for i, le := range s.Bounds {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, promFloat(le), s.Cumulative[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				m.name, s.Count, m.name, promFloat(s.Sum), m.name, s.Count); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", m.name, promFloat(m.value())); err != nil {
			return err
		}
	}
	return nil
}

// jsonHistogram is the JSON-snapshot shape of one histogram.
type jsonHistogram struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []jsonHistBucket `json:"buckets,omitempty"`
}

type jsonHistBucket struct {
	LE         float64 `json:"le"`
	Cumulative int64   `json:"cumulative"`
}

// WriteJSON renders an expvar-style snapshot: one JSON object mapping
// metric name to its current value (histograms to {count, sum, buckets}),
// keys sorted for stable diffs.
func (r *Registry) WriteJSON(w io.Writer) error {
	metrics := r.snapshot()
	obj := make(map[string]any, len(metrics))
	for _, m := range metrics {
		if m.kind == kindHistogram {
			s := m.hist.Snapshot()
			jh := jsonHistogram{Count: s.Count, Sum: s.Sum}
			for i, le := range s.Bounds {
				jh.Buckets = append(jh.Buckets, jsonHistBucket{LE: le, Cumulative: s.Cumulative[i]})
			}
			obj[m.name] = jh
			continue
		}
		obj[m.name] = m.value()
	}
	names := make([]string, 0, len(obj))
	for name := range obj {
		names = append(names, name)
	}
	sort.Strings(names)
	// Hand-rolled ordered emission: encoding/json sorts map keys too, but
	// building the ordered form explicitly keeps the output contract
	// independent of that implementation detail.
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ","
		if i == 0 {
			sep = ""
		}
		kb, err := json.Marshal(name)
		if err != nil {
			return err
		}
		vb, err := json.Marshal(obj[name])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n  %s: %s", sep, kb, vb); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}
