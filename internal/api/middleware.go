package api

// The shared middleware chain and structured access logging: every v1
// surface wraps its mux in Middleware.Wrap so request ids, the
// in-flight gauge, API-key auth, latency/status metrics and the JSON
// access log behave identically everywhere.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// StatusWriter captures the response status and size for metrics and
// the access log.
type StatusWriter struct {
	http.ResponseWriter
	Status int
	Bytes  int64
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.Status == 0 {
		w.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.Status == 0 {
		w.Status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.Bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes (JSONL range scans).
func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// MiddlewareOptions configure one surface's middleware chain.
type MiddlewareOptions struct {
	// Metrics receives request counts, latency and auth rejections.
	// Required.
	Metrics *HTTPMetrics

	// Auth, when non-nil, requires a valid API key on every request
	// but the probe endpoints (ProbePath) and rate-limits per key. Nil
	// admits openly.
	Auth *AuthConfig

	// AccessLog, when non-nil, receives one structured JSON line per
	// request.
	AccessLog io.Writer
}

// Middleware is the assembled chain; build with NewMiddleware and wrap
// the surface's mux with Wrap.
type Middleware struct {
	opts   MiddlewareOptions
	logger *accessLogger
	epoch  string
	seq    atomic.Uint64
}

// NewMiddleware builds the chain. Request ids are <epoch>-<seq> with a
// per-process epoch, so ids stay unique across restarts.
func NewMiddleware(opts MiddlewareOptions) *Middleware {
	mw := &Middleware{
		opts:  opts,
		epoch: fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),
	}
	if opts.AccessLog != nil {
		mw.logger = &accessLogger{w: opts.AccessLog}
	}
	return mw
}

// Wrap instruments a handler: request id, in-flight gauge, auth + rate
// limiting, latency/status metrics, access logging.
func (mw *Middleware) Wrap(next http.Handler) http.Handler {
	m := mw.opts.Metrics
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := fmt.Sprintf("%s-%06d", mw.epoch, mw.seq.Add(1))
		w.Header().Set("X-Request-Id", reqID)
		sw := &StatusWriter{ResponseWriter: w}
		r = r.WithContext(WithRequestID(r.Context(), reqID))
		m.Inflight.Add(1)
		defer m.Inflight.Add(-1)

		keyName := ""
		if mw.opts.Auth != nil && !ProbePath(r.URL.Path) {
			name, status, retryAfter := mw.opts.Auth.Admit(r)
			keyName = name
			switch status {
			case http.StatusUnauthorized:
				m.AuthRejected.With("unauthorized").Add(1)
				Error(sw, r, http.StatusUnauthorized, "missing or unknown API key")
			case http.StatusTooManyRequests:
				m.AuthRejected.With("ratelimited").Add(1)
				sw.Header().Set("Retry-After", strconv.Itoa(retryAfter))
				Error(sw, r, http.StatusTooManyRequests, "rate limit exceeded for this API key")
			default:
				next.ServeHTTP(sw, r)
			}
		} else {
			next.ServeHTTP(sw, r)
		}

		if sw.Status == 0 {
			sw.Status = http.StatusOK
		}
		dur := time.Since(start)
		m.Requests.With(r.URL.Path, strconv.Itoa(sw.Status)).Add(1)
		m.RequestSeconds.Observe(dur.Seconds())
		if mw.logger != nil {
			mw.logger.log(AccessRecord{
				Time:      start.UTC().Format(time.RFC3339Nano),
				Level:     "info",
				Msg:       "request",
				Method:    r.Method,
				Path:      r.URL.Path,
				Query:     r.URL.RawQuery,
				Status:    sw.Status,
				Bytes:     sw.Bytes,
				DurMs:     float64(dur.Microseconds()) / 1e3,
				RequestID: reqID,
				Key:       keyName,
				Remote:    r.RemoteAddr,
			})
		}
	})
}

// AccessRecord is one request-log line.
type AccessRecord struct {
	Time      string  `json:"ts"`
	Level     string  `json:"level"`
	Msg       string  `json:"msg"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Query     string  `json:"query,omitempty"`
	Status    int     `json:"status"`
	Bytes     int64   `json:"bytes"`
	DurMs     float64 `json:"dur_ms"`
	RequestID string  `json:"request_id"`
	Key       string  `json:"key,omitempty"`
	Remote    string  `json:"remote,omitempty"`
}

// accessLogger serializes record writes: concurrent requests never
// interleave bytes within a line.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *accessLogger) log(rec AccessRecord) {
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	l.w.Write(b)
	l.mu.Unlock()
}
