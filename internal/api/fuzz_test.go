package api

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadAPIKeys checks the key-file loader on arbitrary file bytes
// (corpus in testdata/fuzz/FuzzLoadAPIKeys): no panic, every loaded key
// has a finite rate and burst, and Admit never answers a negative or
// uncapped Retry-After.
//
//	go test -run '^$' -fuzz '^FuzzLoadAPIKeys$' -fuzztime 30s ./internal/api
func FuzzLoadAPIKeys(f *testing.F) {
	f.Add([]byte("# comment\nci:secret\nlimited:lkey:5:10\n"))
	path := filepath.Join(f.TempDir(), "keys.txt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		auth, err := LoadAPIKeys(path)
		if err != nil {
			return
		}
		for key, ks := range auth.keys {
			for _, v := range []float64{ks.rate, ks.burst} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("key %q loaded with rate %v and burst %v", ks.name, ks.rate, ks.burst)
				}
			}
			r := httptest.NewRequest(http.MethodGet, "/", nil)
			r.Header.Set("X-API-Key", key)
			for i := 0; i < 3; i++ {
				if _, _, retry := auth.Admit(r); retry < 0 || retry > math.MaxInt32 {
					t.Fatalf("key %q: Retry-After %d", ks.name, retry)
				}
			}
		}
	})
}
