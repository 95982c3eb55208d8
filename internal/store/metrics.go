package store

// The serve layer's metric set, built on the Prometheus-format
// primitives in internal/obs: the api kit's request families plus the
// store-specific counters, the compute-latency histogram and
// scrape-time gauges over the mounted stores and the shared tower
// cache.

import (
	"fmt"
	"io"

	"repro/internal/api"
	"repro/internal/obs"
)

// metrics is the serve layer's metric set. The http set (requests,
// auth rejections, request latency, in-flight gauge) is fed by the
// api middleware; the rest by the classify/solve paths.
type metrics struct {
	http           *api.HTTPMetrics
	storeHits      *obs.CounterVec // n
	storeMisses    *obs.CounterVec // n
	cacheHits      *obs.CounterVec // n
	rehydrated     *obs.CounterVec // n
	computed       *obs.CounterVec // n
	persisted      *obs.CounterVec // n
	computeSeconds *obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		http:        api.NewHTTPMetrics("factool"),
		storeHits:   obs.NewCounterVec("factool_store_hits_total", "Classify lookups answered directly from a store.", "n"),
		storeMisses: obs.NewCounterVec("factool_store_misses_total", "Classify lookups the stores could not answer (live-computed).", "n"),
		cacheHits:   obs.NewCounterVec("factool_entry_cache_hits_total", "Classify lookups answered from the in-memory entry LRU.", "n"),
		rehydrated:  obs.NewCounterVec("factool_store_rehydrated_total", "Classify lookups answered by rehydrating an orbit representative.", "n"),
		computed:    obs.NewCounterVec("factool_computed_total", "Entries computed on the live examination path.", "n"),
		persisted:   obs.NewCounterVec("factool_persisted_total", "Live-computed entries written back to a store.", "n"),
		computeSeconds: obs.NewHistogram("factool_compute_seconds",
			"Live classify/solve computation latency in seconds.", obs.DefaultLatencyBuckets),
	}
}

// writeTo emits the full exposition: the counter/histogram families
// plus scrape-time gauges over the mounted stores and the shared tower
// cache.
func (m *metrics) writeTo(w io.Writer, s *Server) {
	m.http.Write(w)
	m.storeHits.Write(w)
	m.storeMisses.Write(w)
	m.cacheHits.Write(w)
	m.rehydrated.Write(w)
	m.computed.Write(w)
	m.persisted.Write(w)
	m.computeSeconds.Write(w)

	fmt.Fprintf(w, "# HELP factool_store_entries Entries resident in each mounted store.\n# TYPE factool_store_entries gauge\n")
	mounts := s.reg.Mounts()
	for _, mt := range mounts {
		fmt.Fprintf(w, "factool_store_entries{n=%q} %d\n", fmt.Sprint(mt.N()), mt.Store().Stats().Entries)
	}
	fmt.Fprintf(w, "# HELP factool_presence_skips_total Definite misses answered by the presence filter without block inflation.\n# TYPE factool_presence_skips_total counter\n")
	for _, mt := range mounts {
		fmt.Fprintf(w, "factool_presence_skips_total{n=%q} %d\n", fmt.Sprint(mt.N()), mt.Store().PresenceSkips())
	}

	// The cheap exposition path: counters and size gauges without
	// Snapshot's per-tower level walk, so scrapes stay O(1) however
	// large the cache grows.
	s.tcache.WritePrometheus(w)
}
