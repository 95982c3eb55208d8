package api

// API-key authentication and per-key rate limiting for the v1
// surfaces. Keys load from a plain text file (one key per line,
// optional per-key rate and burst), requests present them as a bearer
// token or X-API-Key header, and each key gets its own token bucket —
// an over-limit key is throttled (429) without touching any other
// key's budget. No auth config means an open server (the historical
// behavior).

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// APIKey is one authorized key with its rate budget.
type APIKey struct {
	// Name labels the key in logs and metrics (never the secret).
	Name string
	// Key is the secret presented by clients.
	Key string
	// RatePerSec refills the key's token bucket; <= 0 means unlimited.
	// NaN and infinities are rejected.
	RatePerSec float64
	// Burst caps the bucket; <= 0 selects max(2*RatePerSec, 1). NaN and
	// infinities are rejected.
	Burst float64
}

// finite rejects a NaN or infinite rate or burst: NaN fails every
// comparison, so such a key would never be throttled.
func (k APIKey) finite() error {
	for _, v := range []float64{k.RatePerSec, k.Burst} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("API key %q: rate %v and burst %v must be finite", k.Name, k.RatePerSec, k.Burst)
		}
	}
	return nil
}

// AuthConfig is a v1 surface's auth state: the key set and its
// limiters. Safe for concurrent use.
type AuthConfig struct {
	keys map[string]*keyState
}

type keyState struct {
	name  string
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewAuthConfig builds auth state from explicit keys.
func NewAuthConfig(keys []APIKey) (*AuthConfig, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("api: auth enabled with no keys")
	}
	cfg := &AuthConfig{keys: make(map[string]*keyState, len(keys))}
	for _, k := range keys {
		if k.Key == "" {
			return nil, fmt.Errorf("api: empty API key %q", k.Name)
		}
		if _, dup := cfg.keys[k.Key]; dup {
			return nil, fmt.Errorf("api: duplicate API key %q", k.Name)
		}
		if err := k.finite(); err != nil {
			return nil, fmt.Errorf("api: %w", err)
		}
		burst := k.Burst
		if burst <= 0 {
			// min: twice a rate near MaxFloat64 overflows to +Inf.
			burst = max(min(2*k.RatePerSec, math.MaxFloat64), 1)
		}
		name := k.Name
		if name == "" {
			name = anonymizeKey(k.Key)
		}
		cfg.keys[k.Key] = &keyState{
			name:   name,
			rate:   k.RatePerSec,
			burst:  burst,
			tokens: burst,
			last:   time.Now(),
		}
	}
	return cfg, nil
}

// LoadAPIKeys reads a key file: one key per line as
//
//	name:key[:rate[:burst]]
//
// with '#' comments and blank lines ignored. rate is requests/second
// (0 or omitted = unlimited), burst the bucket cap.
func LoadAPIKeys(path string) (*AuthConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("api: apikeys: %w", err)
	}
	defer f.Close()
	var keys []APIKey
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("api: apikeys %s:%d: want name:key[:rate[:burst]]", path, lineNo)
		}
		k := APIKey{Name: parts[0], Key: parts[1]}
		if len(parts) > 2 && parts[2] != "" {
			if k.RatePerSec, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return nil, fmt.Errorf("api: apikeys %s:%d: bad rate %q", path, lineNo, parts[2])
			}
		}
		if len(parts) > 3 && parts[3] != "" {
			if k.Burst, err = strconv.ParseFloat(parts[3], 64); err != nil {
				return nil, fmt.Errorf("api: apikeys %s:%d: bad burst %q", path, lineNo, parts[3])
			}
		}
		if err := k.finite(); err != nil {
			return nil, fmt.Errorf("api: apikeys %s:%d: %w", path, lineNo, err)
		}
		keys = append(keys, k)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("api: apikeys: %w", err)
	}
	return NewAuthConfig(keys)
}

// anonymizeKey renders a log-safe key label.
func anonymizeKey(key string) string {
	if len(key) <= 4 {
		return "key-****"
	}
	return "key-" + key[:4] + "****"
}

// requestKey extracts the presented API key: Authorization bearer
// token first, X-API-Key header second.
func requestKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
	}
	return r.Header.Get("X-API-Key")
}

// Admit authorizes one request. It returns the key's display name and
// a zero status on success; otherwise the HTTP status to answer (401
// unknown or missing key, 429 over the key's rate) and, for 429, a
// suggested Retry-After in seconds, at most math.MaxInt32.
func (a *AuthConfig) Admit(r *http.Request) (name string, status int, retryAfter int) {
	ks, ok := a.keys[requestKey(r)]
	if !ok {
		return "", http.StatusUnauthorized, 0
	}
	if ks.rate <= 0 {
		return ks.name, 0, 0
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	now := time.Now()
	ks.tokens += now.Sub(ks.last).Seconds() * ks.rate
	if ks.tokens > ks.burst {
		ks.tokens = ks.burst
	}
	ks.last = now
	if ks.tokens < 1 {
		// A tiny rate makes the wait overflow int; cap it.
		wait := (1 - ks.tokens) / ks.rate
		retry := int(min(wait+1, math.MaxInt32))
		return ks.name, http.StatusTooManyRequests, retry
	}
	ks.tokens--
	return ks.name, 0, 0
}
