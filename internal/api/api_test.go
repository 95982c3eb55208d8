package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]string{"status": "ok"})
	})
}

func TestMiddlewareRequestIDAndEnvelope(t *testing.T) {
	m := NewHTTPMetrics("kit")
	mw := NewMiddleware(MiddlewareOptions{Metrics: m})
	h := mw.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if RequestID(r.Context()) == "" {
			t.Error("no request id in context")
		}
		Error(w, r, http.StatusTeapot, "no %s here", "coffee")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/thing", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", rec.Code)
	}
	reqID := rec.Header().Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("missing X-Request-Id")
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope: %v", err)
	}
	if env.Error.Code != http.StatusTeapot || env.Error.Message != "no coffee here" {
		t.Fatalf("envelope = %+v", env.Error)
	}
	if env.Error.RequestID != reqID {
		t.Fatalf("envelope request id %q != header %q", env.Error.RequestID, reqID)
	}

	// A second request gets a distinct id.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/thing", nil))
	if rec2.Header().Get("X-Request-Id") == reqID {
		t.Fatal("request ids repeat")
	}
}

func TestMiddlewareAuth(t *testing.T) {
	auth, err := NewAuthConfig([]APIKey{
		{Name: "ci", Key: "secret"},
		{Name: "slow", Key: "throttled", RatePerSec: 0.0001, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewHTTPMetrics("kit")
	mw := NewMiddleware(MiddlewareOptions{Metrics: m, Auth: auth})
	h := mw.Wrap(okHandler())

	get := func(path, key string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if key != "" {
			r.Header.Set("Authorization", "Bearer "+key)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}

	if rec := get("/v1/thing", ""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("no key: status = %d, want 401", rec.Code)
	}
	if rec := get("/v1/thing", "wrong"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("bad key: status = %d, want 401", rec.Code)
	}
	if rec := get("/v1/thing", "secret"); rec.Code != http.StatusOK {
		t.Fatalf("good key: status = %d, want 200", rec.Code)
	}
	// Probe paths stay open.
	if rec := get("/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: status = %d, want 200", rec.Code)
	}
	// Second request on a burst-1 near-zero-rate key is throttled.
	if rec := get("/v1/thing", "throttled"); rec.Code != http.StatusOK {
		t.Fatalf("throttled #1: status = %d, want 200", rec.Code)
	}
	rec := get("/v1/thing", "throttled")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("throttled #2: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := m.AuthRejected.With("ratelimited").Load(); got != 1 {
		t.Fatalf("ratelimited counter = %d, want 1", got)
	}
}

func TestMiddlewareAccessLog(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMiddleware(MiddlewareOptions{Metrics: NewHTTPMetrics("kit"), AccessLog: &buf})
	h := mw.Wrap(okHandler())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/thing?x=1", nil))
	var recLine AccessRecord
	if err := json.Unmarshal(buf.Bytes(), &recLine); err != nil {
		t.Fatalf("bad access line %q: %v", buf.String(), err)
	}
	if recLine.Path != "/v1/thing" || recLine.Query != "x=1" || recLine.Status != 200 {
		t.Fatalf("access line = %+v", recLine)
	}
	if recLine.RequestID != rec.Header().Get("X-Request-Id") {
		t.Fatal("access line request id mismatch")
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewHTTPMetrics("kit")
	m.Requests.With("/v1/a", "200").Add(3)
	m.Requests.With("/v1/b", "404").Add(1)
	m.RequestSeconds.Observe(0.003)
	m.RequestSeconds.Observe(2.0)
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`kit_requests_total{path="/v1/a",code="200"} 3`,
		`kit_requests_total{path="/v1/b",code="404"} 1`,
		`kit_request_seconds_bucket{le="0.005"} 1`,
		`kit_request_seconds_bucket{le="+Inf"} 2`,
		`kit_request_seconds_count 2`,
		"kit_inflight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestLoadAPIKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.txt")
	content := "# comment\nci:secret\nlimited:lkey:5:10\n\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	auth, err := LoadAPIKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.Header.Set("X-API-Key", "lkey")
	name, status, _ := auth.Admit(r)
	if name != "limited" || status != 0 {
		t.Fatalf("admit(lkey) = %q, %d", name, status)
	}

	// Rejected lines name their file and line. A NaN rate or burst
	// would switch the key's limiter off, so it must not load.
	for _, bad := range []struct{ line, want string }{
		{"justakey", "want name:key"},
		{"name:key:NaN", `API key "name"`},
		{"name:key:1:NaN", `API key "name"`},
	} {
		if err := os.WriteFile(path, []byte("# header\n"+bad.line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadAPIKeys(path)
		if err == nil {
			t.Fatalf("%q accepted", bad.line)
		}
		if msg := err.Error(); !strings.Contains(msg, path+":2:") || !strings.Contains(msg, bad.want) {
			t.Fatalf("%q: error %q, want the %s:2 prefix and %q", bad.line, msg, path, bad.want)
		}
	}

	// A tiny positive rate is a valid (very slow) limiter.
	if err := os.WriteFile(path, []byte("name:key:1e-300\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAPIKeys(path); err != nil {
		t.Fatalf("1e-300 rate rejected: %v", err)
	}
}

// TestAdmitRetryAfterCapped: a key whose refill wait overflows int
// answers 429 with Retry-After capped at math.MaxInt32, never negative.
func TestAdmitRetryAfterCapped(t *testing.T) {
	auth, err := NewAuthConfig([]APIKey{{Name: "slow", Key: "k", RatePerSec: 1e-300}})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.Header.Set("X-API-Key", "k")
	if _, status, _ := auth.Admit(r); status != 0 {
		t.Fatalf("first request status %d, want admitted", status)
	}
	_, status, retry := auth.Admit(r)
	if status != http.StatusTooManyRequests || retry != math.MaxInt32 {
		t.Fatalf("second request = %d with Retry-After %d, want 429 with %d", status, retry, math.MaxInt32)
	}
}

func TestNewAuthConfigRejectsNonFinite(t *testing.T) {
	for _, k := range []APIKey{
		{Name: "nan-rate", Key: "a", RatePerSec: math.NaN()},
		{Name: "inf-rate", Key: "b", RatePerSec: math.Inf(1)},
		{Name: "inf-burst", Key: "c", RatePerSec: 1, Burst: math.Inf(-1)},
	} {
		if _, err := NewAuthConfig([]APIKey{k}); err == nil || !strings.Contains(err.Error(), k.Name) {
			t.Fatalf("%s: err %v, want a rejection naming the key", k.Name, err)
		}
	}
}
