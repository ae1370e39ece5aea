package service

import (
	"encoding/json"
	"io"
	"net/http"

	"modemerge/internal/obs"
)

// maxRequestBytes caps POST /v2/merge and /v2/matrix bodies (netlists
// are text; 32 MiB is far beyond anything this flow handles in one job).
const maxRequestBytes = 32 << 20

// Handler returns the service's HTTP API (documented in docs/api.md and
// docs/openapi.yaml):
//
//	POST /v2/merge            submit a job (202 + {id, status, cached, digest});
//	                          honors Idempotency-Key
//	POST /v2/matrix           submit an MCMM scenario-matrix job
//	GET  /v2/jobs             list jobs (cursor pagination, ?status= filter)
//	GET  /v2/jobs/{id}        job status snapshot
//	GET  /v2/jobs/{id}/result finished result (409 until done)
//	GET  /v2/jobs/{id}/matrix the reduced scenario matrix, paginated
//	GET  /v2/jobs/{id}/trace  the job's span tree (stage timings, counters)
//	POST /v2/jobs/{id}/cancel request cancellation (409 when already terminal)
//	GET  /v2/jobs/{id}/flight the job's flight recording (404 when none)
//	GET  /v2/flights          the flight recorder's ring, newest first
//	GET  /v2/stats            this server's counters and stage timings
//	GET  /v2/cluster          the merge fabric's cluster view
//
// Every /v2 route speaks W3C Trace Context: a valid traceparent request
// header's trace id is adopted (jobs join the caller's trace) and every
// response carries a traceparent header.
// Errors on /v2 use a uniform envelope with stable codes (see http_v2.go).
// Unversioned:
//
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness probe
//	/fabric/v1/...            cluster-internal wire API (fabric enabled only)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.registerV2(mux)
	if s.cfg.Fabric.Enabled {
		// Cluster-internal wire API (join/poll/complete + blob
		// passthrough); versioned by path, documented in docs/api.md.
		mux.Handle("/fabric/v1/", s.fabric.Handler())
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// traceResponse is the GET /v2/jobs/{id}/trace payload.
type traceResponse struct {
	ID     string          `json:"id"`
	Status Status          `json:"status"`
	Trace  []*obs.SpanView `json:"trace"`
}

// statsResponse is the GET /v2/stats payload: the stats snapshot plus
// queue occupancy.
type statsResponse struct {
	StatsSnapshot
	Queue DrainTimeoutStatus `json:"queue"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		StatsSnapshot: s.metrics.Snapshot(),
		Queue:         s.QueueStatus(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Snapshot().WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
	s.writeClusterMetrics(w)
}

// writeClusterMetrics appends the modemerged_cluster_* family to a
// Prometheus scrape. Every server is a coordinator, so the gauges exist
// everywhere (enabled=0 where workers cannot join).
func (s *Server) writeClusterMetrics(w io.Writer) {
	st := s.fabric.Status()
	pw := obs.NewPromWriter(w)
	pw.Gauge("modemerged_cluster_enabled", "Whether merge workers can join this server.",
		obs.Series{Value: boolGauge(st.Enabled)})
	pw.Gauge("modemerged_cluster_workers", "Remote merge workers currently registered.",
		obs.Series{Value: float64(len(st.Workers))})
	pw.Gauge("modemerged_cluster_pending_cliques", "Clique jobs queued awaiting a worker.",
		obs.Series{Value: float64(st.Pending)})
	pw.Gauge("modemerged_cluster_inflight_cliques", "Clique jobs currently leased to workers.",
		obs.Series{Value: float64(len(st.InFlight))})
	pw.Counter("modemerged_cluster_steals_total", "Clique jobs claimed by remote workers.",
		obs.Series{Value: float64(st.Steals)})
	pw.Counter("modemerged_cluster_retries_total", "Clique jobs requeued after lease expiry or lost artifacts.",
		obs.Series{Value: float64(st.Retries)})
	pw.Counter("modemerged_cluster_cliques_total", "Multi-mode cliques by terminal outcome: completed in-process or by workers, failed on the fabric.",
		obs.Series{Labels: []string{"outcome", "completed"}, Value: float64(st.Completed)},
		obs.Series{Labels: []string{"outcome", "failed"}, Value: float64(st.Failed)})
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}
