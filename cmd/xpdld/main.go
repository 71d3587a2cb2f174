// Command xpdld is the multi-tenant simulation daemon: a long-running
// HTTP/JSON server over the XPDL toolchain. It accepts compile,
// simulate, chaos, cosim and bveq jobs, runs them on a worker pool
// sized to the machine, checkpoints simulation-shaped jobs at snapshot
// boundaries, and recovers every non-terminal job after a crash — a
// SIGKILL mid-job costs at most one checkpoint interval of work and
// never changes the final report.
//
// Usage:
//
//	xpdld [-addr host:port] [-state dir] [-workers N]
//	      [-checkpoint-every N] [-quota-active N] [-quota-cycles N]
//	      [-max-queue N] [-max-attempts N] [-fault-seed S]
//
// -max-queue bounds the global admission queue: past it, submissions
// are shed with 503 + Retry-After instead of piling up. -max-attempts
// bounds crash-recovery re-enqueues per job before quarantine.
// -fault-seed (nonzero) wraps the artifact store in the deterministic
// storage-fault injector — torture testing only, never production.
//
// The daemon writes the bound address (useful with -addr :0) to
// <state>/xpdld.addr once listening. SIGINT/SIGTERM shut it down
// gracefully: running jobs are preempted at their next cycle boundary,
// checkpointed, and persisted back to queued, so the next daemon on the
// same state directory resumes them with no lost work.
//
// Exit codes: 0 clean shutdown, 1 startup or serve failure, 2 usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"xpdl/internal/faultfs"
	"xpdl/internal/xpdld"
)

// Connection set-up bounds. ReadHeaderTimeout drops a client that
// opens a connection and never finishes its request headers;
// IdleTimeout closes keep-alive connections left unused. There is no
// WriteTimeout: an /events stream stays open for a job's whole run.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7433", "listen address (use :0 for an ephemeral port)")
	state := flag.String("state", "xpdld-state", "artifact-store directory (specs, checkpoints, reports)")
	workers := flag.Int("workers", 0, "worker pool width (0 = all cores)")
	checkpointEvery := flag.Int("checkpoint-every", 50_000, "default checkpoint interval in cycles")
	quotaActive := flag.Int("quota-active", 0, "per-tenant cap on queued+running jobs (0 = default 64)")
	quotaCycles := flag.Int("quota-cycles", 0, "per-job cycle-budget ceiling (0 = default 10M)")
	maxQueue := flag.Int("max-queue", 0, "global admission-queue bound; past it submits get 503 (0 = default 256)")
	maxAttempts := flag.Int("max-attempts", 0, "crash-recovery re-enqueues per job before quarantine (0 = default 3)")
	faultSeed := flag.Uint64("fault-seed", 0, "nonzero: inject deterministic storage faults seeded here (torture testing)")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	var storeFS faultfs.FS
	if *faultSeed != 0 {
		fmt.Fprintf(os.Stderr, "xpdld: TORTURE MODE: injecting storage faults (seed %d)\n", *faultSeed)
		storeFS = faultfs.New(faultfs.OS(), faultfs.Default(*faultSeed))
	}

	srv, err := xpdld.New(xpdld.Config{
		StateDir:        *state,
		Workers:         *workers,
		CheckpointEvery: *checkpointEvery,
		Quota:           xpdld.Quota{MaxActive: *quotaActive, MaxCycles: *quotaCycles},
		MaxQueue:        *maxQueue,
		MaxAttempts:     *maxAttempts,
		FS:              storeFS,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if err := writeAddrFile(filepath.Join(*state, "xpdld.addr"), bound); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "xpdld: listening on %s (state %s)\n", bound, *state)

	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "xpdld: %v: draining (jobs checkpoint and return to the queue)\n", sig)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "xpdld: clean shutdown")
}

// writeAddrFile persists the bound address atomically so scripts can
// poll for it without racing a partial write.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xpdld:", err)
	os.Exit(1)
}
