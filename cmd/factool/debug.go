package main

// Shared -debug-addr / -trace wiring for the long-running factool
// subcommands (serve, coordinate, work, census): an operational side
// surface (/healthz, /metrics, /debug/pprof, /debug/vars, /debug/trace)
// plus JSONL span export for `factool tracecat`.

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
)

// debugFlags adds the observability flags every long-runner shares.
func debugFlags(fs *flag.FlagSet) (debugAddr, tracePath *string) {
	debugAddr = fs.String("debug-addr", "",
		"serve /healthz, /metrics, /debug/pprof and /debug/trace on this address (off when empty)")
	tracePath = fs.String("trace", "",
		"append completed spans as JSON lines to this file (see factool tracecat)")
	return
}

// startDebug wires the shared flags up: span export to tracePath, and
// the debug mux on debugAddr over reg — nil means a fresh registry that
// includes the process-global families, which is right for census,
// whose telemetry is entirely package-global. The returned cleanup
// stops the listener and closes the trace file; it is non-nil even on
// error.
func startDebug(name, debugAddr, tracePath string, reg *obs.Registry) (func(), error) {
	cleanup := func() {}
	if tracePath != "" {
		if err := obs.DefaultTracer.ExportTo(tracePath); err != nil {
			return cleanup, err
		}
		cleanup = func() { obs.DefaultTracer.Close() }
	}
	if debugAddr != "" {
		if reg == nil {
			reg = obs.NewRegistry()
			reg.Include(obs.Default)
		}
		bound, stop, err := obs.StartDebug(debugAddr, reg, obs.DefaultTracer)
		if err != nil {
			cleanup()
			return func() {}, err
		}
		fmt.Fprintf(os.Stderr, "factool %s: debug surface on http://%s (healthz, metrics, pprof, trace)\n", name, bound)
		closeTrace := cleanup
		cleanup = func() {
			stop()
			closeTrace()
		}
	}
	return cleanup, nil
}
