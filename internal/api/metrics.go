package api

// The request-shaped metric bundle the v1 middleware feeds. The
// counter, histogram and gauge primitives live in internal/obs.

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// HTTPMetrics is the per-surface request metric set the middleware
// feeds: request counts by path/status, auth rejections, end-to-end
// latency and the in-flight gauge. Names are <prefix>_requests_total,
// <prefix>_auth_rejected_total, <prefix>_request_seconds and
// <prefix>_inflight_requests.
type HTTPMetrics struct {
	prefix         string
	Requests       *obs.CounterVec // path, code
	AuthRejected   *obs.CounterVec // reason: unauthorized | ratelimited
	RequestSeconds *obs.Histogram
	Inflight       atomic.Int64
}

// NewHTTPMetrics builds the request metric set under a name prefix
// (e.g. "factool").
func NewHTTPMetrics(prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		prefix:       prefix,
		Requests:     obs.NewCounterVec(prefix+"_requests_total", "HTTP requests by path and status code.", "path", "code"),
		AuthRejected: obs.NewCounterVec(prefix+"_auth_rejected_total", "Requests rejected by API-key auth or rate limiting.", "reason"),
		RequestSeconds: obs.NewHistogram(prefix+"_request_seconds",
			"End-to-end request latency in seconds.", obs.DefaultLatencyBuckets),
	}
}

// WritePrometheus emits the request families plus the in-flight gauge.
// It implements obs.Collector, so an HTTPMetrics set registers directly
// into an obs.Registry.
func (m *HTTPMetrics) WritePrometheus(w io.Writer) {
	m.Requests.WritePrometheus(w)
	m.AuthRejected.WritePrometheus(w)
	m.RequestSeconds.WritePrometheus(w)
	obs.WriteGauge(w, m.prefix+"_inflight_requests", "Requests currently being served.", m.Inflight.Load())
}
