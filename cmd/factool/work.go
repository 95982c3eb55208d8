package main

// factool work — the worker side of the distributed census fabric: an
// acquire → rank-range sweep → shard upload loop against a `factool
// coordinate` endpoint.

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/tasks"
)

func cmdWork(args []string) error {
	fs := newFlagSet("work")
	url := fs.String("url", "http://127.0.0.1:8081", "coordinator base URL")
	id := fs.String("id", "", "worker id (default: hostname-pid)")
	task := fs.String("task", "", "task spec this worker expects the campaign to decide; a campaign sweeping a different task rejects the worker")
	workers := fs.Int("workers", 0, "sweep worker-pool size per unit (0 = one per CPU)")
	ttlSec := fs.Int("ttl", 0, "requested lease TTL in seconds (0 = coordinator default)")
	cacheMB := fs.Int64("cachemb", 0, "tower-cache byte budget in MiB for solve campaigns (0 = unbounded)")
	tmp := fs.String("tmp", "", "shard spool directory (default: system temp)")
	maxUnits := fs.Int("max-units", 0, "stop after completing this many units (0 = run to campaign end)")
	apikey := fs.String("apikey", "", "API key sent as a Bearer token")
	maxOutage := fs.Duration("max-outage", 0, "give up after the coordinator is unreachable this long (0 = retry forever)")
	crashAfter := fs.Int("crash-after", 0, "fault injection: die holding a lease after completing this many units")
	debugAddr, tracePath := debugFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *task != "" {
		if _, err := tasks.ParseSpec(*task); err != nil {
			return usagef(fs, "work: %v", err)
		}
	}
	opts := fabric.WorkerOptions{
		BaseURL:    *url,
		ID:         *id,
		TaskSpec:   *task,
		APIKey:     *apikey,
		Workers:    *workers,
		CacheBytes: *cacheMB << 20,
		TTLSec:     *ttlSec,
		TempDir:    *tmp,
		MaxUnits:   *maxUnits,
		MaxOutage:  *maxOutage,
		Log:        os.Stderr,
	}
	// The worker's scrape surface: its own sweep/lease families plus the
	// process-global ones (census throughput, solver decisions, runtime).
	reg := obs.NewRegistry()
	reg.Include(obs.Default)
	opts.Registry = reg
	stopDebug, err := startDebug("work", *debugAddr, *tracePath, reg)
	if err != nil {
		return err
	}
	defer stopDebug()
	if *crashAfter > 0 {
		target := *crashAfter + 1
		opts.AcquireHook = func(k int, leaseID string, u fabric.Unit) error {
			if k >= target {
				return fmt.Errorf("work: injected crash holding lease %s (unit %d)", leaseID, u.ID)
			}
			return nil
		}
	}

	// A signal closes Stop: the in-flight lease is released so its unit
	// requeues immediately instead of waiting out the TTL.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		signal.Stop(sigc)
		fmt.Fprintln(os.Stderr, "factool work: signal — releasing lease and stopping")
		close(stop)
	}()
	opts.Stop = stop

	stats, err := fabric.Work(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "factool work: %s completed %d unit(s), %d entries\n", *id, stats.Units, stats.Entries)
	return nil
}
