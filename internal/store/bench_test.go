package store

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/census"
)

// benchStore builds an n=4 orbit store once per benchmark run.
func benchStore(b *testing.B) *Store {
	return benchStoreOf(b, census.Options{Orbits: true})
}

// benchStoreOf merges an n=4 census sweep into a fresh store with
// default-sized blocks.
func benchStoreOf(b *testing.B, opts census.Options) *Store {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, "shard.jsonl")
	sink, err := census.NewJSONLSink(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := census.Stream(4, opts, sink); err != nil {
		b.Fatal(err)
	}
	sink.Close()
	st, err := Create(filepath.Join(dir, "store"), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	if _, err := st.Merge([]string{path}, MergeOptions{}); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkCensusStoreLookup measures the orbit-aware point-query hot
// path over the n=4 store (block cache warm, spanning direct hits and
// Permute rehydrations).
func BenchmarkCensusStoreLookup(b *testing.B) {
	st := benchStore(b)
	orbits := adversary.NewOrbits(4)
	total := adversary.CensusSize(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(i*2654435761) % total
		if _, src, err := st.Lookup(idx, orbits); err != nil || src == LookupMiss {
			b.Fatalf("lookup %d: src=%v err=%v", idx, src, err)
		}
	}
}

// BenchmarkCensusStoreColdLookup measures uniform point queries over
// the full n=4 domain's store: 128 blocks through the 16-block cache,
// so most lookups re-inflate a block and probe it. The orbit store of
// the benchmarks above fits the cache and never takes this path.
func BenchmarkCensusStoreColdLookup(b *testing.B) {
	st := benchStoreOf(b, census.Options{})
	if blocks := st.Stats().Blocks; blocks <= blockCacheSize {
		b.Fatalf("%d blocks fit the %d-block cache", blocks, blockCacheSize)
	}
	total := adversary.CensusSize(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(i*2654435761) % total
		if _, ok, err := st.Get(idx); err != nil || !ok {
			b.Fatalf("get %d: ok=%v err=%v", idx, ok, err)
		}
	}
}

// BenchmarkServeClassifyLatency measures the per-request latency
// distribution of the HTTP classify path and reports the tail as a
// "p99-ns/op" custom metric beside the mean ns/op. The CI bench-track
// regex matches "Serve", and benchjson compare gates custom metric
// regressions like ns/op ones — so a serve p99 regression fails CI.
func BenchmarkServeClassifyLatency(b *testing.B) {
	st := benchStore(b)
	srv := registryServer(b, st, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	total := adversary.CensusSize(4)
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(i*2654435761) % total
		t0 := time.Now()
		resp, err := client.Get(fmt.Sprintf("%s/v1/classify?n=4&index=%d", ts.URL, idx))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	slices.Sort(lat)
	p99 := lat[min(len(lat)*99/100, len(lat)-1)]
	b.ReportMetric(float64(p99), "p99-ns/op")
}

// BenchmarkCensusServeClassify measures the full HTTP query path
// (handler, store, LRU) under sequential load.
func BenchmarkCensusServeClassify(b *testing.B) {
	st := benchStore(b)
	srv := registryServer(b, st, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	total := adversary.CensusSize(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(i*2654435761) % total
		resp, err := http.Get(fmt.Sprintf("%s/v1/classify?n=4&index=%d", ts.URL, idx))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// BenchmarkCensusStoreMerge measures a campaign's merges: eight n=5
// shards of 2^12 consecutive indices (gzip, as the fabric uploads
// them), merged in order into a fresh store. "last/first" is the
// eighth merge's time over the first's: a merge that rewrote every
// stored block would take eight times longer by the end.
func BenchmarkCensusStoreMerge(b *testing.B) {
	const units, unit = 8, 1 << 12
	dir := b.TempDir()
	shards := make([]string, units)
	for u := range shards {
		shards[u] = filepath.Join(dir, fmt.Sprintf("unit-%d.jsonl.gz", u))
		sink, err := census.NewJSONLSinkCompressed(shards[u])
		if err != nil {
			b.Fatal(err)
		}
		lo := uint64(u * unit)
		if _, err := census.SweepRange(5, census.Options{Workers: 1}, sink, lo, lo+unit); err != nil {
			b.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
	}
	var first, last time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		storeDir := filepath.Join(dir, "store")
		if err := os.RemoveAll(storeDir); err != nil {
			b.Fatal(err)
		}
		st, err := Create(storeDir, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for u, shard := range shards {
			t0 := time.Now()
			if _, err := st.Merge([]string{shard}, MergeOptions{}); err != nil {
				b.Fatal(err)
			}
			switch d := time.Since(t0); u {
			case 0:
				first += d
			case units - 1:
				last += d
			}
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(last)/float64(first), "last/first")
}

// BenchmarkServeLoadPresence measures mounting a store as the serving
// layer does: Open plus LoadPresence over an n=5 store of 2^15 entries
// in 256-entry blocks, which reads, checks and parses every line of
// its 128 blocks.
func BenchmarkServeLoadPresence(b *testing.B) {
	dir := b.TempDir()
	shard := filepath.Join(dir, "shard.jsonl")
	sink, err := census.NewJSONLSink(shard)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := census.SweepRange(5, census.Options{}, sink, 0, 1<<15); err != nil {
		b.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	st, err := Create(storeDir, 5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Merge([]string{shard}, MergeOptions{BlockEntries: 256}); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(storeDir)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.LoadPresence(); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
}
