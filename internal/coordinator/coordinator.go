// Package coordinator implements the sharded serving tier: a routing
// front end that fans batch work out across a pool of eqasm-serve
// workers and survives failures on both sides of the split.
//
// The coordinator is an eqasm.Backend — callers hold the same Job
// handle they get from a Simulator or a Client — whose Submit routes
// each request to a worker over the /v1/batches wire protocol (via
// eqasm.Client) instead of executing it locally. Three mechanisms make
// the tier production-shaped:
//
//   - Content-hash affinity. Requests route by rendezvous hashing over
//     the sha256 of their program text — the same content hash the
//     workers key their program caches on — so repeated submissions of
//     one program land on one worker and hit its warm decode plans,
//     while distinct programs spread across the pool.
//
//   - Health and backpressure. A probe loop samples each worker's
//     /v1/stats; unreachable or draining workers leave the eligible
//     set, and a worker whose queue is past the spill high-water mark
//     sheds new work to the next-ranked worker. Requests stranded by a
//     worker that dies mid-batch are re-queued onto survivors —
//     bit-identical re-execution, because shot seeds derive from the
//     request's own base seed, never from placement.
//
//   - Durability. Every accepted batch is journaled to a write-ahead
//     log (internal/wal) before the caller gets its handle, and every
//     terminal per-request outcome afterward. A coordinator restarted
//     over the same log re-admits unfinished batches, reapplies the
//     results that made it to disk, and re-dispatches only the rest.
//
// Close is deliberately crash-equivalent: it abandons in-flight
// batches without journaling completion, exactly as a crash would, so
// recovery needs no cooperation from the previous process.
package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eqasm"
	"eqasm/internal/service"
	"eqasm/internal/wal"
	"eqasm/internal/wire"
)

// Config parameterizes a Coordinator. Workers is required; everything
// else has serving defaults.
type Config struct {
	// Workers is the pool: base URLs of eqasm-serve instances. All
	// workers must simulate the same chip as Machine resolves to.
	Workers []string
	// Machine configures the coordinator's own view of the stack
	// (topology, compile options) used to resolve wire submissions and
	// re-assemble journaled batches. It must match the workers'
	// service.Config.Machine; circuit text compiles exactly as a worker
	// with the default service.Config would (service.Config.Compile).
	Machine []eqasm.Option
	// Client options apply to every worker link (timeouts, retry
	// policy). A bounded dial-retry is installed by default.
	Client []eqasm.ClientOption
	// HealthInterval is the worker probe period. Default 500ms.
	HealthInterval time.Duration
	// SpillHighWater is the queue-fullness fraction (depth/capacity)
	// at which affinity yields to load and new work spills to the
	// next-ranked worker. Default 0.75.
	SpillHighWater float64
	// MaxAttempts bounds dispatch attempts per request before the
	// coordinator gives up on it. Default 3.
	MaxAttempts int
	// CacheSize bounds the coordinator's own resolved-program cache
	// (wire submissions). Default 128.
	CacheSize int
	// WorkerWait is how long a batch waits for an eligible worker to
	// appear before failing. Default 5s.
	WorkerWait time.Duration
	// WAL is the durable job log. Default wal.Nop() — no durability;
	// pass an opened *wal.FileLog to survive coordinator restarts.
	WAL wal.Log
}

// errClosing is the cancellation cause Close injects into in-flight
// batches; drive recognizes it and abandons without journaling
// completion (crash-equivalent shutdown).
var errClosing = errors.New("coordinator: closing")

// Coordinator routes batches across a worker pool. It implements
// eqasm.Backend and the wire-serving httpapi.Backend contract.
type Coordinator struct {
	cfg     Config
	compile service.Config // the workers' compile path for wire text
	chip    string
	cache   *service.ProgramCache
	log     wal.Log
	workers []*worker

	batches    service.Batches
	seq        atomic.Int64
	wg         sync.WaitGroup // drive goroutines
	healthWG   sync.WaitGroup
	stopHealth chan struct{}
	closeOnce  sync.Once

	// mu guards the unfinished batches, whose journal entries a
	// checkpoint keeps, and the checkpoint cadence.
	mu              sync.Mutex
	live            map[string]*pending
	sinceCheckpoint int

	metrics struct {
		dispatches atomic.Int64
		spills     atomic.Int64
		requeues   atomic.Int64
		recovered  atomic.Int64
		walRecords atomic.Int64
		walErrors  atomic.Int64
	}
}

var _ eqasm.Backend = (*Coordinator)(nil)

// New builds the coordinator, replays the WAL, re-dispatches any
// unfinished batches from a previous life, and starts the worker
// health loop.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("coordinator: no workers configured")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if cfg.SpillHighWater <= 0 || cfg.SpillHighWater > 1 {
		cfg.SpillHighWater = 0.75
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.WorkerWait <= 0 {
		cfg.WorkerWait = 5 * time.Second
	}
	if cfg.WAL == nil {
		cfg.WAL = wal.Nop()
	}
	// The coordinator validates chips and re-assembles journaled work
	// against its own stack; a throwaway simulator resolves Machine to
	// the chip name it implies.
	sim, err := eqasm.NewSimulator(cfg.Machine...)
	if err != nil {
		return nil, fmt.Errorf("coordinator: machine config: %w", err)
	}
	c := &Coordinator{
		cfg:        cfg,
		compile:    service.Config{Machine: cfg.Machine},
		chip:       sim.Chip(),
		cache:      service.NewProgramCache(cfg.CacheSize),
		log:        cfg.WAL,
		live:       make(map[string]*pending),
		stopHealth: make(chan struct{}),
	}
	for _, u := range cfg.Workers {
		u = strings.TrimRight(u, "/")
		// Defaults first so caller options override: a short dial
		// retry smooths worker restarts without hiding real outages.
		copts := append([]eqasm.ClientOption{eqasm.WithRetry(2, 25*time.Millisecond)}, cfg.Client...)
		c.workers = append(c.workers, &worker{url: u, client: eqasm.NewClient(u, copts...)})
	}
	recovered, err := c.replayWAL()
	if err != nil {
		return nil, err
	}
	// One synchronous probe round so routing has health data from the
	// first Submit.
	c.probeAll()
	c.healthWG.Add(1)
	go c.healthLoop()
	for _, rb := range recovered {
		if err := c.recover(rb); err != nil {
			return nil, err
		}
	}
	// Drop completed batches journaled by the previous life.
	if err := c.Checkpoint(); err != nil {
		return nil, fmt.Errorf("coordinator: wal checkpoint: %w", err)
	}
	return c, nil
}

// Chip returns the topology name the pool simulates.
func (c *Coordinator) Chip() string { return c.chip }

// Submit implements eqasm.Backend: it validates and journals the
// batch, then drives it to completion across the worker pool. The
// returned Job behaves exactly like a Simulator or Client job.
// RunOptions.Workers is ignored (each worker owns its own fan-out);
// per-request results are bit-identical to a lone Simulator at the
// same explicit seed regardless of placement or re-queues.
func (c *Coordinator) Submit(ctx context.Context, reqs ...eqasm.RunRequest) (*eqasm.Job, error) {
	p, err := c.submit(ctx, reqs, service.PriorityNormal, false)
	if err != nil {
		return nil, err
	}
	return p.Job, nil
}

func (c *Coordinator) submit(ctx context.Context, reqs []eqasm.RunRequest, prio service.Priority, streaming bool) (*pending, error) {
	for i, r := range reqs {
		if r.Program == nil {
			break // NewControlledJob reports the canonical error
		}
		if r.Options.Shots < 0 {
			return nil, fmt.Errorf("coordinator: request %d: negative shot count %d", i, r.Options.Shots)
		}
		if r.Options.Seed < 0 {
			return nil, fmt.Errorf("coordinator: request %d: negative seed %d", i, r.Options.Seed)
		}
		if chip := r.Program.Chip(); chip != c.chip {
			return nil, fmt.Errorf("coordinator: request %d: program chip %q does not match pool chip %q", i, chip, c.chip)
		}
	}
	p, err := c.newPending(fmt.Sprintf("coord-%06d", c.seq.Add(1)), ctx, reqs, prio)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(acceptedRecord{Chip: c.chip, Priority: prio.String(), Requests: p.wire})
	if err != nil {
		p.Release()
		return nil, fmt.Errorf("coordinator: journal batch: %w", err)
	}
	if streaming {
		// Attach before the driver starts so histogram replays are
		// never skipped by a stream raced on after completion.
		p.Job.Stream()
	}
	outstanding := make([]int, len(reqs))
	for i := range outstanding {
		outstanding[i] = i
	}
	err = c.batches.Admit(p.Batch, len(reqs), func() error {
		// The accepted record must be durable before the caller holds
		// a handle: a batch the caller saw admitted survives a crash.
		if err := c.walAppend(p, wal.Entry{Kind: wal.KindAccepted, Batch: p.Job.ID(), Index: -1, Data: data}); err != nil {
			return fmt.Errorf("coordinator: journal batch: %w", err)
		}
		c.start(p, outstanding)
		return nil
	})
	if err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// start tracks an admitted batch as unfinished and drives its
// outstanding requests. It runs under the batch table's lock (inside
// Batches.Admit), so Close waits for every driver it does not refuse.
func (c *Coordinator) start(p *pending, outstanding []int) {
	c.mu.Lock()
	c.live[p.Job.ID()] = p
	c.mu.Unlock()
	c.wg.Add(1)
	go c.drive(p, outstanding)
}

// Run implements eqasm.Backend: one request through Submit, awaited
// to the end (the job is bound to ctx, so a cancellation finishes it
// and the partial Result stays beside the error).
func (c *Coordinator) Run(ctx context.Context, p *eqasm.Program, opts eqasm.RunOptions) (*eqasm.Result, error) {
	job, err := c.Submit(ctx, eqasm.RunRequest{Program: p, Options: opts})
	if err != nil {
		return nil, err
	}
	results, err := job.Wait(context.Background())
	return results[0], err
}

// RunStream implements eqasm.Backend as sugar over Submit with the
// stream attached before the batch dispatches. Like the Client's
// stream, shots arrive as a per-request histogram replay once the
// request completes on its worker; a failure or a cancellation
// delivers one final ShotResult with Err set.
func (c *Coordinator) RunStream(ctx context.Context, p *eqasm.Program, opts eqasm.RunOptions) (<-chan eqasm.ShotResult, error) {
	pend, err := c.submit(ctx, []eqasm.RunRequest{{Program: p, Options: opts}}, service.PriorityNormal, true)
	if err != nil {
		return nil, err
	}
	return pend.Job.Stream(), nil
}

// Job returns a submitted job by ID, including recently finished ones.
func (c *Coordinator) Job(id string) (*eqasm.Job, bool) { return c.batches.Job(id) }

// SubmitWire admits a decoded /v1/batches payload (the httpapi.Backend
// contract): the batch passes the workers' own admission checks, each
// request's text resolves to a program through the coordinator's
// content-hash cache and the workers' compile path, and the batch then
// routes like any Submit — shots, seed, backend, fusion and params
// included. The priority is kept and reported in the batch status, but
// batches dispatch in arrival order.
func (c *Coordinator) SubmitWire(ctx context.Context, req wire.BatchRequest) (wire.Batch, error) {
	spec, err := service.BatchFromWire(req)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	reqs := make([]eqasm.RunRequest, len(spec.Requests))
	for i, r := range spec.Requests {
		if r.Chip != "" && r.Chip != c.chip {
			return nil, fmt.Errorf("coordinator: request %d: program chip %q does not match pool chip %q", i, r.Chip, c.chip)
		}
		// The cache key is the hash the workers key their own caches
		// on, so a cached resolve here predicts a warm worker.
		prog, _, err := c.cache.Resolve(c.compile, r, nil)
		if err != nil {
			return nil, fmt.Errorf("coordinator: request %d: %w", i, err)
		}
		reqs[i] = runRequest(prog, wire.Request(r))
	}
	// Returning submit's *pending directly would wrap a nil pointer in
	// a non-nil wire.Batch on the error path.
	p, err := c.submit(ctx, reqs, spec.Priority, false)
	if err != nil {
		return nil, err
	}
	return p.Batch, nil
}

// Batch is Job behind the httpapi.Backend contract.
func (c *Coordinator) Batch(id string) (wire.Batch, bool) { return c.batches.Batch(id) }

// Draining reports whether the coordinator has stopped accepting work.
func (c *Coordinator) Draining() bool { return c.batches.Closed() }

// Close stops the coordinator crash-equivalently: in-flight batches
// are cancelled on their workers and abandoned without a completion
// record, so a coordinator reopened over the same WAL re-admits and
// re-runs them (their handles from this life never finalize). The
// worker pool itself keeps serving.
func (c *Coordinator) Close() error {
	var err error
	c.closeOnce.Do(func() {
		live := c.batches.Close()
		close(c.stopHealth)
		for _, b := range live {
			b.Stop(errClosing)
		}
		c.wg.Wait()
		c.healthWG.Wait()
		err = c.log.Close()
	})
	return err
}

// Checkpoint rewrites the WAL down to the records of batches that have
// not finished, bounding replay work and file growth. A result record
// appended concurrently with the rewrite can be lost; that is benign —
// recovery simply re-runs that request, deterministically.
func (c *Coordinator) Checkpoint() error {
	c.mu.Lock()
	var keep []wal.Entry
	for _, p := range c.live {
		p.walMu.Lock()
		keep = append(keep, p.walEntries...)
		p.walMu.Unlock()
	}
	c.mu.Unlock()
	return c.log.Checkpoint(keep)
}

// Stats is a point-in-time snapshot of routing, durability and
// per-worker counters.
type Stats struct {
	// Workers is the configured pool size; WorkersHealthy how many
	// passed their last probe.
	Workers        int `json:"workers"`
	WorkersHealthy int `json:"workers_healthy"`
	// WorkerPool carries per-worker health and load.
	WorkerPool []WorkerStats `json:"worker_pool"`

	// BatchCounts are the batch table's jobs_* and requests_submitted
	// counters, as the workers report theirs.
	service.BatchCounts

	// Dispatches counts sub-batches sent to workers; Spills routing
	// decisions that yielded affinity to load; Requeues requests
	// re-routed after a worker failure.
	Dispatches int64 `json:"dispatches"`
	Spills     int64 `json:"spills"`
	Requeues   int64 `json:"requeues"`

	// RecoveredBatches counts batches re-admitted from the WAL at
	// startup; WALRecords/WALErrors journal appends and append
	// failures over this coordinator's life.
	RecoveredBatches int64 `json:"recovered_batches"`
	WALRecords       int64 `json:"wal_records"`
	WALErrors        int64 `json:"wal_errors,omitempty"`

	// Cache counters cover the coordinator's own resolved-program
	// cache (wire submissions), not the workers'.
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
}

// WorkerStats is one worker's health and last-probed load.
type WorkerStats struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	// Inflight is the coordinator's own count of requests currently
	// dispatched to this worker.
	Inflight int64 `json:"inflight"`
	// ServiceStats is the worker's last successful /v1/stats probe
	// (zero until one succeeds), flattened into the worker's entry.
	eqasm.ServiceStats
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Workers:          len(c.workers),
		BatchCounts:      c.batches.Counts(),
		Dispatches:       c.metrics.dispatches.Load(),
		Spills:           c.metrics.spills.Load(),
		Requeues:         c.metrics.requeues.Load(),
		RecoveredBatches: c.metrics.recovered.Load(),
		WALRecords:       c.metrics.walRecords.Load(),
		WALErrors:        c.metrics.walErrors.Load(),
	}
	for _, w := range c.workers {
		w.statsMu.Lock()
		wst := WorkerStats{
			URL:          w.url,
			Healthy:      w.healthy.Load(),
			Draining:     w.draining.Load(),
			Inflight:     w.inflight.Load(),
			ServiceStats: w.stats,
		}
		w.statsMu.Unlock()
		if wst.Healthy {
			st.WorkersHealthy++
		}
		st.WorkerPool = append(st.WorkerPool, wst)
	}
	st.CacheHits, st.CacheMisses, st.CacheEntries = c.cache.Stats()
	return st
}

// StatsPayload is Stats as the /v1/stats body (httpapi.Backend).
func (c *Coordinator) StatsPayload() any { return c.Stats() }
