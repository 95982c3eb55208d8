package store

// The serve layer's metric set, built on the Prometheus-format
// primitives in internal/obs: the api kit's request families plus the
// store-specific counters, the compute-latency histogram and
// scrape-time gauges over the mounted stores and the shared tower
// cache, assembled into one obs.Registry with the process-global
// families.

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

// newTelemetry assembles the server's one exposition, written by its
// /metrics and handed to a -debug-addr surface through Registry: the
// request families, the per-n counters, the compute histogram,
// scrape-time gauges over the mounted stores, the shared tower cache
// and, last, the process-global families (runtime, census, solver).
func (s *Server) newTelemetry() *obs.Registry {
	m := s.m
	reg := obs.NewRegistry()
	reg.MustRegister("serve-http", m.http)
	reg.MustRegister("serve-store-hits", m.storeHits)
	reg.MustRegister("serve-store-misses", m.storeMisses)
	reg.MustRegister("serve-entry-cache-hits", m.cacheHits)
	reg.MustRegister("serve-rehydrated", m.rehydrated)
	reg.MustRegister("serve-computed", m.computed)
	reg.MustRegister("serve-persisted", m.persisted)
	reg.MustRegister("serve-compute-seconds", m.computeSeconds)
	reg.MustRegister("serve-stores", obs.CollectorFunc(s.writeStoreGauges))
	// The cache's cheap exposition: counters and size gauges without
	// Snapshot's per-tower level walk, so scrapes stay O(1) however
	// large the cache grows.
	reg.MustRegister("serve-tower-cache", s.tcache)
	reg.Include(obs.Default)
	return reg
}

// writeStoreGauges emits the scrape-time gauges over the mounted stores.
func (s *Server) writeStoreGauges(w io.Writer) {
	fmt.Fprintf(w, "# HELP factool_store_entries Entries resident in each mounted store.\n# TYPE factool_store_entries gauge\n")
	mounts := s.reg.Mounts()
	for _, mt := range mounts {
		fmt.Fprintf(w, "factool_store_entries{n=%q} %d\n", fmt.Sprint(mt.N()), mt.Store().Stats().Entries)
	}
	fmt.Fprintf(w, "# HELP factool_presence_skips_total Definite misses answered by the presence filter without block inflation.\n# TYPE factool_presence_skips_total counter\n")
	for _, mt := range mounts {
		fmt.Fprintf(w, "factool_presence_skips_total{n=%q} %d\n", fmt.Sprint(mt.N()), mt.Store().PresenceSkips())
	}
}
