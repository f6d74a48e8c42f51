// Command eqasm-coord is the sharded serving tier's front door: a
// coordinator that speaks the same /v1/batches wire protocol as
// eqasm-serve but routes each request across a pool of workers by
// content-hash affinity (rendezvous hashing over the program's sha256,
// the hash workers key their caches on), spills away from overloaded
// workers, re-queues work stranded by a worker death, and — with -wal
// — journals every accepted batch so a restarted coordinator finishes
// what the previous one admitted. Results are bit-identical to a lone
// simulator at the same explicit seed, regardless of placement.
//
// The public eqasm.Client cannot tell a coordinator from a worker.
//
// Usage:
//
//	eqasm-coord -workers http://a:8080,http://b:8080 [-addr :8090] [-wal coord.wal] [-topo twoqubit]
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eqasm"
	"eqasm/internal/coordinator"
	"eqasm/internal/httpapi"
	"eqasm/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	workers := flag.String("workers", "", "comma-separated eqasm-serve base URLs (required)")
	walPath := flag.String("wal", "", "write-ahead log path; empty disables durability")
	noFsync := flag.Bool("wal-nofsync", false, "skip fsync on journal appends (faster, loses the tail on power failure)")
	topoName := flag.String("topo", "twoqubit", "chip topology the pool simulates: twoqubit, surface7, surface17, iontrap5, ibmqx2")
	noisy := flag.Bool("noise", false, "workers use the calibrated noise model (affects local compile defaults only)")
	health := flag.Duration("health", 0, "worker health-probe interval (0 = default)")
	spill := flag.Float64("spill", 0, "queue-fullness fraction at which affinity spills to the next worker (0 = default)")
	attempts := flag.Int("attempts", 0, "max dispatch attempts per request (0 = default)")
	cacheSize := flag.Int("cache", 0, "resolved-program cache entries (0 = default)")
	wait := flag.Duration("wait", 0, "how long a batch waits for an eligible worker (0 = default)")
	flag.Parse()

	urls := strings.Split(*workers, ",")
	pool := urls[:0]
	for _, u := range urls {
		if u = strings.TrimSpace(u); u != "" {
			pool = append(pool, u)
		}
	}
	if len(pool) == 0 {
		log.Fatal("eqasm-coord: -workers is required (comma-separated eqasm-serve URLs)")
	}

	machine := []eqasm.Option{eqasm.WithTopology(*topoName)}
	if *noisy {
		machine = append(machine, eqasm.WithCalibratedNoise())
	}
	jlog := wal.Log(wal.Nop())
	if *walPath != "" {
		fl, err := wal.Open(*walPath, wal.WithFsync(!*noFsync))
		if err != nil {
			log.Fatalf("eqasm-coord: %v", err)
		}
		jlog = fl
	}

	coord, err := coordinator.New(coordinator.Config{
		Workers:        pool,
		Machine:        machine,
		HealthInterval: *health,
		SpillHighWater: *spill,
		MaxAttempts:    *attempts,
		CacheSize:      *cacheSize,
		WorkerWait:     *wait,
		WAL:            jlog,
	})
	if err != nil {
		log.Fatalf("eqasm-coord: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.New(coord).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// No WriteTimeout: "wait": true responses legitimately span a
		// batch's whole run.
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	st := coord.Stats()
	log.Printf("eqasm-coord: listening on %s (topology %s, %d workers, %d healthy, %d batches recovered)",
		*addr, coord.Chip(), st.Workers, st.WorkersHealthy, st.RecoveredBatches)

	select {
	case err := <-errc:
		log.Fatalf("eqasm-coord: %v", err)
	case <-ctx.Done():
	}

	// Crash-equivalent shutdown: stop the listener, then abandon
	// in-flight batches to the journal — a restart over the same -wal
	// re-admits and finishes them. The workers keep running.
	log.Print("eqasm-coord: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("eqasm-coord: http shutdown: %v", err)
	}
	if err := coord.Close(); err != nil {
		log.Printf("eqasm-coord: close: %v", err)
	}
	log.Print("eqasm-coord: bye")
}
