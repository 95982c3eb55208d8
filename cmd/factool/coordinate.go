package main

// factool coordinate — the coordinator side of the distributed census
// fabric: partition a campaign into rank-range units, lease them to
// `factool work` processes over the v1 protocol, and fold the uploaded
// shards into the ledger store.

import (
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/store"
	"repro/internal/tasks"
)

func cmdCoordinate(args []string) error {
	fs := newFlagSet("coordinate")
	n := fs.Int("n", 3, "number of processes")
	storeDir := fs.String("store", "", "ledger store directory (created when missing)")
	orbits := fs.Bool("orbits", true, "sweep canonical orbit representatives only")
	solve := fs.Bool("solve", false, "campaign also decides the configured task per fair adversary")
	task := fs.String("task", "", "registered task spec the campaign decides (e.g. kset:k=2, loop-agreement); implies -solve")
	ktask := fs.Int("ktask", 1, "k of the k-set consensus task for -solve when -task is empty: the CLI spelling of -task kset:k=K")
	rounds := fs.Int("rounds", 1, "maximum iterations of R_A for -solve")
	unitSize := fs.Uint64("unit-size", 0, "ranks per unit (orbit mode) or raw indices per unit (0 = default)")
	addr := fs.String("addr", "127.0.0.1:8081", "listen address")
	ttl := fs.Duration("ttl", 60*time.Second, "default lease TTL; unrenewed leases requeue after it")
	spool := fs.String("spool", "", "shard spool directory (default: system temp)")
	apikeys := fs.String("apikeys", "", "API-key file (name:key[:rate[:burst]] lines); enables 401/429 auth")
	logJSON := fs.Bool("log-json", false, "structured JSON request log on stderr")
	exitOnComplete := fs.Bool("exit-on-complete", false, "shut down once every unit is merged (campaign runs, CI)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "in-flight request budget during shutdown")
	debugAddr, tracePath := debugFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *storeDir == "" {
		return usagef(fs, "coordinate: -store is required")
	}
	if err := checkRounds(fs, *rounds); err != nil {
		return err
	}
	if *task != "" {
		if _, err := tasks.ParseSpec(*task); err != nil {
			return usagef(fs, "coordinate: %v", err)
		}
		*solve = true
	} else if *solve {
		*task = tasks.KSetSpec(*ktask).String()
	}
	st, err := store.OpenOrCreate(*storeDir, *n)
	if err != nil {
		return err
	}
	defer st.Close()

	camp := fabric.Campaign{N: *n, Orbits: *orbits, Solve: *solve, Task: *task, MaxRounds: *rounds}
	opts := fabric.CoordinatorOptions{
		UnitSize: *unitSize,
		TTL:      *ttl,
		SpoolDir: *spool,
		Log:      os.Stderr,
	}
	if *apikeys != "" {
		auth, err := api.LoadAPIKeys(*apikeys)
		if err != nil {
			return err
		}
		opts.Auth = auth
	}
	if *logJSON {
		opts.AccessLog = os.Stderr
	}
	c, err := fabric.NewCoordinator(st, camp, opts)
	if err != nil {
		return err
	}
	// The debug surface reuses the coordinator's registry, so pprof and
	// /metrics show the same campaign families as the protocol port.
	stopDebug, err := startDebug("coordinate", *debugAddr, *tracePath, c.Registry())
	if err != nil {
		return err
	}
	defer stopDebug()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "factool coordinate: campaign n=%d orbits=%v solve=%v on %s (store %s)\n",
		*n, *orbits, *solve, ln.Addr(), *storeDir)

	// Serve until a signal — or, with -exit-on-complete, until the last
	// unit merges. Workers polling an already-drained campaign get their
	// "done" response during the drain window.
	var done <-chan struct{}
	if *exitOnComplete {
		done = c.Done()
	}
	err = serveUntil(ln, c.Handler(), done, func() {
		select {
		case <-done:
			fmt.Fprintln(os.Stderr, "factool coordinate: campaign complete — draining")
		default:
		}
	}, *drainTimeout)
	if err != nil {
		return err
	}

	status := c.Status()
	fmt.Fprintf(os.Stderr, "factool coordinate: %d/%d units done, %d requeues, %d entries in the store\n",
		status.Units.Done, status.Units.Total, status.Requeues, status.StoreEntries)
	if status.Units.Conflict > 0 {
		return fmt.Errorf("coordinate: %d unit(s) had conflicting completions — the store and the spooled shards disagree", status.Units.Conflict)
	}
	return nil
}
