// Command eqasm-serve exposes the eQASM execution service over HTTP: the
// classical host of Fig. 1 as a network service. Every submission is a
// batch (POST /v1/batches): N programs as one queued unit with
// per-request histograms, each request carrying eQASM source or cQASM
// or OpenQASM circuit text to compile; a single job is a one-request
// batch. The service assembles or compiles once (content-hash cache),
// fans shots over a worker pool of simulated QuMA_v2 machines, and
// aggregates measurement histograms. The handler set lives in
// internal/httpapi (shared with cmd/eqasm-coord), the JSON schema in
// internal/wire; the public eqasm.Client (Submit/Run/RunStream) speaks
// it.
//
// Usage:
//
//	eqasm-serve [-addr :8080] [-topo twoqubit] [-workers N] [-noise] [-seed 1]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eqasm"
	"eqasm/internal/httpapi"
	"eqasm/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	topoName := flag.String("topo", "twoqubit", "chip topology: twoqubit, surface7, surface17, iontrap5, ibmqx2")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "max queued shot batches (0 = default)")
	cacheSize := flag.Int("cache", 0, "assembled-program cache entries (0 = default)")
	batchShots := flag.Int("batch", 0, "shots per worker batch (0 = default)")
	noisy := flag.Bool("noise", false, "use the calibrated noise model instead of an ideal chip")
	seed := flag.Int64("seed", 1, "base random seed")
	drain := flag.Bool("drain", false, "on the first signal, drain before exiting: refuse new submits (healthz turns 503) but keep serving polls until admitted jobs finish")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for admitted jobs while draining (with -drain); a second signal cuts the wait short")
	flag.Parse()

	machine := []eqasm.Option{
		eqasm.WithTopology(*topoName),
		eqasm.WithSeed(*seed),
	}
	if *noisy {
		machine = append(machine, eqasm.WithCalibratedNoise())
	}
	svc, err := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		CacheSize:  *cacheSize,
		BatchShots: *batchShots,
		Machine:    machine,
	})
	if err != nil {
		log.Fatalf("eqasm-serve: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.New(svc).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// No WriteTimeout: "wait": true responses legitimately span a
		// job's whole run.
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("eqasm-serve: listening on %s (topology %s, %d workers)",
		*addr, *topoName, svc.Stats().Workers)

	select {
	case err := <-errc:
		log.Fatalf("eqasm-serve: %v", err)
	case <-ctx.Done():
	}
	stop()

	// Rolling-restart drain: flip the service to draining while the
	// listener stays up, so routing tiers see the 503 healthz and
	// clients polling admitted jobs still get their results. Only then
	// tear the HTTP server down.
	if *drain {
		log.Print("eqasm-serve: draining (refusing new work, finishing admitted jobs)")
		svc.Drain()
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		sigCtx, sigStop := signal.NotifyContext(dctx, os.Interrupt, syscall.SIGTERM)
		if err := svc.DrainWait(sigCtx); err != nil {
			log.Printf("eqasm-serve: drain cut short: %v", err)
		}
		sigStop()
		dcancel()
	}

	// Graceful shutdown: stop accepting connections, then drain the job
	// queue before exiting.
	log.Print("eqasm-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("eqasm-serve: http shutdown: %v", err)
	}
	if err := svc.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("eqasm-serve: drain incomplete (%v), cancelling remaining jobs", err)
		svc.Close()
	}
	log.Print("eqasm-serve: bye")
}
