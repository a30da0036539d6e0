package transport

import "github.com/fedzkt/fedzkt/internal/obs"

// This file binds the session layer to the observability substrate:
// aggregate scrape-time views over the per-session stats (which stay the
// source of truth behind SessionStats). Round metrics and stage spans are
// the round engine's. Purely observational.

// RegisterMetrics binds aggregate session-layer counters into reg under
// fedzkt_transport_* names. The values are computed from the live
// per-session stats at scrape time.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	sum := func(f func(SessionStats) int64) func() float64 {
		return func() float64 {
			var t int64
			for _, st := range s.SessionStats() {
				t += f(st)
			}
			return float64(t)
		}
	}
	reg.RegisterGaugeFunc("fedzkt_transport_sessions", "registered device sessions",
		func() float64 { return float64(len(s.SessionStats())) })
	reg.RegisterCounterFunc("fedzkt_transport_resumes_total", "session resumes after disconnects",
		sum(func(st SessionStats) int64 { return int64(st.Resumes) }))
	reg.RegisterCounterFunc("fedzkt_transport_uploads_absorbed_total", "fresh uploads absorbed over the wire",
		sum(func(st SessionStats) int64 { return int64(st.Absorbed) }))
	reg.RegisterCounterFunc("fedzkt_transport_uploads_late_total", "stale uploads absorbed within the staleness bound",
		sum(func(st SessionStats) int64 { return int64(st.Late) }))
	reg.RegisterCounterFunc("fedzkt_transport_uploads_duplicate_total", "replayed uploads discarded as duplicates",
		sum(func(st SessionStats) int64 { return int64(st.Duplicates) }))
	reg.RegisterCounterFunc("fedzkt_transport_wire_up_bytes_total", "bytes received from devices",
		sum(func(st SessionStats) int64 { return st.BytesUp }))
	reg.RegisterCounterFunc("fedzkt_transport_wire_down_bytes_total", "bytes sent to devices",
		sum(func(st SessionStats) int64 { return st.BytesDown }))
}
