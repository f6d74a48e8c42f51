// Package service is the concurrent eQASM execution engine: the
// classical host's serving layer of Fig. 1, grown into a job service.
// Clients submit eQASM source, or cQASM or OpenQASM circuit text
// (Format "cqasm" or "openqasm", compiled server-side through the pass
// pipeline) — one program per job (Submit) or N programs as one batch
// job (SubmitBatch) — and get back the public *eqasm.Job, the handle
// the Simulator, the Client and the coordinator hand out too. The
// service assembles or compiles each program once and caches the
// result by content hash, and a bounded pool of workers fans every
// request's shots out as batches over independent QuMA_v2 machines.
// Each request's batches merge into one eqasm.Result, which its last
// batch hands to the job's eqasm.JobController; the job's last batch
// finalizes it. Each request splits and derives its seeds
// independently of its batch position, so results are bit-identical
// whether a program is submitted alone or inside a batch.
//
// Both serving tiers keep their batches the same way: a Batch holds the
// public job, its priority and cache hits and renders its /v1/batches
// wire status (Batch.Describe), and a Batches table admits, indexes,
// retires and counts them. The coordinator tier resolves wire text
// through the same ProgramCache.Resolve and Config.Compile.
//
// Concurrency model (the shared-mutable-state audit of the stack):
//
//   - machines are not concurrency safe, so every batch runs through
//     the shared eqasm.Simulator with Workers == 1 on its own pooled
//     machine; random streams derive from the job seed plus the batch
//     index, making results reproducible for a fixed BatchShots.
//   - the assembler and emitter behind eqasm.Assemble/Compile keep no
//     per-call state, so concurrent submitters resolve freely.
//   - the topology and operation configuration are read-only after
//     construction and are interned by the eqasm package, so every
//     batch of every job shares one machine pool.
//   - eqasm.Program values returned by the cache are immutable: one
//     assembled program is shared by all batches of all jobs that hash
//     to it.
//   - eqasm.WithMockMeasure functions, if configured, are called from
//     worker goroutines and must be safe for concurrent use.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eqasm"
	"eqasm/internal/wire"
)

var (
	// ErrClosed reports a submit to a service that is shutting down.
	ErrClosed = errors.New("service: closed")
	// ErrDraining reports a submit to a service that is draining: it is
	// finishing admitted work but accepts nothing new (rolling-restart
	// drain; the client should resubmit elsewhere). It matches ErrClosed
	// under errors.Is — draining is a closing service — so pre-drain
	// callers keep working.
	ErrDraining error = drainingError{}
	// ErrQueueFull reports that the bounded batch queue cannot hold the
	// job (backpressure; the client should retry or shed load).
	ErrQueueFull = errors.New("service: queue full")
)

// drainingError lets ErrDraining also match ErrClosed under errors.Is.
type drainingError struct{}

func (drainingError) Error() string        { return "service: draining" }
func (drainingError) Is(target error) bool { return target == ErrClosed }

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued shot batches; a Submit that
	// would overflow it fails with ErrQueueFull. Default 256.
	QueueDepth int
	// CacheSize bounds the assembled-program cache (LRU entries).
	// Default 128.
	CacheSize int
	// BatchShots is the number of shots dispatched to a worker as one
	// unit; a job with more shots is split over several batches (and
	// therefore several workers), at most maxJobBatches of them.
	// Default 32.
	BatchShots int
	// InitWaitCycles idles the chip before a compiled circuit's first
	// operation (initialisation by relaxation). Default 10000 (200 us),
	// as in Fig. 3. eQASM source jobs control their own QWAITs.
	InitWaitCycles int
	// SOMQ enables single-operation-multiple-qubit combining when
	// emitting compiled circuits.
	SOMQ bool
	// Machine configures the execution stack shared by all jobs:
	// topology, operation set, instantiation, noise, instrumentation
	// and the base seed of every derived batch seed (eqasm.WithSeed).
	Machine []eqasm.Option
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.BatchShots <= 0 {
		c.BatchShots = 32
	}
	if c.InitWaitCycles <= 0 {
		c.InitWaitCycles = 10000
	}
	return c
}

// Service is a running execution engine. Create with New, submit with
// Submit, stop with Shutdown (drain) or Close (cancel).
type Service struct {
	cfg   Config
	start time.Time
	// sim is the shared execution backend: it pools reseedable
	// machines per instruction-set context, so a batch checkout is
	// bit-identical to a freshly built machine at the batch seed.
	sim   *eqasm.Simulator
	cache *ProgramCache
	queue *batchQueue

	workersWG sync.WaitGroup
	jobsWG    sync.WaitGroup

	// draining mirrors "closed but still finishing admitted work" for
	// the stats and health endpoints, so a routing tier can stop
	// steering new work here before submits start bouncing.
	draining atomic.Bool

	batches Batches
	jobSeq  atomic.Int64
	metrics metrics

	// profMu guards gateProfile, the service-wide kernel execution
	// profile: static instruction sites per kernel kind weighted by the
	// shots that replayed them.
	profMu      sync.Mutex
	gateProfile map[string]int64
}

// metrics are the service's atomic counters and gauges beyond the
// batch table's.
type metrics struct {
	jobsRejected    atomic.Int64
	batchJobs       atomic.Int64
	shotsExecuted   atomic.Int64
	stabilizerShots atomic.Int64
	batchesRun      atomic.Int64
	inflightShots   atomic.Int64
	workersBusy     atomic.Int64
	runNs           atomic.Int64
	planHits        atomic.Int64
	planMisses      atomic.Int64
}

// Stats is a point-in-time snapshot of the service counters — the
// /v1/stats payload, declared once with the Client that reads it.
type Stats = eqasm.ServiceStats

// New builds and starts a service; the worker pool runs until Shutdown
// or Close.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	// The simulator resolves and validates the machine options once
	// (fail fast on an unusable template instead of failing every
	// batch) and pools machines for all batches of all jobs.
	sim, err := eqasm.NewSimulator(cfg.Machine...)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   cfg,
		start: time.Now(),
		sim:   sim,
		cache: NewProgramCache(cfg.CacheSize),
		queue: newBatchQueue(cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workersWG.Add(1)
		go func() {
			defer s.workersWG.Done()
			s.workerLoop()
		}()
	}
	return s, nil
}

// Submit validates, resolves (assembling or compiling through the
// cache), and enqueues a single-program job, returning immediately with
// its handle — sugar over a one-request SubmitBatch. ctx cancellation
// propagates to the job for its whole lifetime: a deadline that expires
// while the job is queued or running cancels it.
func (s *Service) Submit(ctx context.Context, spec JobSpec) (*eqasm.Job, error) {
	return s.SubmitBatch(ctx, spec.batch())
}

// SubmitBatch validates, resolves and enqueues a batch of requests as
// one job: one queue admission, one retirement, per-request histograms
// and statuses. Every request splits into shot batches exactly as a
// single-request job with the same shot count would, so per-request
// results are bit-identical to submitting each request on its own (at
// the same seeds). ctx cancellation propagates to the whole batch.
func (s *Service) SubmitBatch(ctx context.Context, spec BatchSpec) (*eqasm.Job, error) {
	j, err := s.admit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return j.Job, nil
}

// admit is SubmitBatch returning the service's side of the job.
func (s *Service) admit(ctx context.Context, spec BatchSpec) (*jobRun, error) {
	if err := spec.Validate(); err != nil {
		s.metrics.jobsRejected.Add(1)
		return nil, err
	}
	for i, r := range spec.Requests {
		if r.Chip != "" && r.Chip != s.sim.Chip() {
			s.metrics.jobsRejected.Add(1)
			return nil, fmt.Errorf("service: request %d targets chip %q, this service runs %q",
				i, r.Chip, s.sim.Chip())
		}
	}
	spec = spec.withDefaults()
	if s.batches.Closed() {
		s.metrics.jobsRejected.Add(1)
		return nil, s.closedErr()
	}

	reqs := make([]*requestRun, len(spec.Requests))
	cacheHits := make([]bool, len(spec.Requests))
	runReqs := make([]eqasm.RunRequest, len(spec.Requests))
	for i, rs := range spec.Requests {
		prog, cacheHit, err := s.cache.Resolve(s.cfg, rs, s.preparePlan)
		if err != nil {
			s.metrics.jobsRejected.Add(1)
			if len(spec.Requests) > 1 {
				err = fmt.Errorf("request %d: %w", i, err)
			}
			return nil, err
		}
		reqs[i] = &requestRun{spec: rs, program: prog, res: eqasm.Result{Histogram: map[string]int{}}}
		cacheHits[i] = cacheHit
		runReqs[i] = eqasm.RunRequest{Program: prog, Tag: rs.Tag}
	}

	seq := s.jobSeq.Add(1)
	b, ctl, err := NewBatch(ctx, fmt.Sprintf("job-%06d", seq), runReqs, spec.Priority)
	if err != nil {
		s.metrics.jobsRejected.Add(1)
		return nil, err
	}
	b.CacheHits = cacheHits
	j := &jobRun{Batch: b, ctl: ctl, seq: seq, svc: s, reqs: reqs}
	for _, r := range j.reqs {
		r.runCtx, r.cancelRun = context.WithCancelCause(b.Context())
	}
	batches := j.split(s.cfg)
	// Each request's split is position-independent (that is what makes
	// batch results bit-identical to solo submissions), so a batch of
	// many huge requests can legitimately need more slots than the
	// queue holds — reject it explicitly rather than letting the
	// all-or-nothing push fail forever on an idle service.
	if len(batches) > s.cfg.QueueDepth {
		s.rejectJob(j)
		return nil, fmt.Errorf("%w: batch of %d requests needs %d queue slots, queue holds %d (split the batch or raise QueueDepth)",
			ErrQueueFull, len(reqs), len(batches), s.cfg.QueueDepth)
	}
	j.remaining = len(batches)
	// The push happens under the table's lock, so Shutdown's drain
	// cannot miss a job between the closed check and the push.
	err = s.batches.Admit(b, len(reqs), func() error {
		if !s.queue.tryPush(batches) {
			return ErrQueueFull
		}
		s.jobsWG.Add(1)
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrClosed) {
			err = s.closedErr()
		}
		s.rejectJob(j)
		return nil, err
	}
	if len(reqs) > 1 {
		s.metrics.batchJobs.Add(1)
	}
	return j, nil
}

// Run is the synchronous convenience wrapper: Submit, then wait for
// the job to finish and return the single request's result (partial
// alongside the error when the job failed or was cancelled, ctx expiry
// included: the job is bound to ctx, so it finishes promptly).
func (s *Service) Run(ctx context.Context, spec JobSpec) (*eqasm.Result, error) {
	job, err := s.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	results, err := job.Wait(context.Background())
	return results[0], err
}

// Job returns a submitted job by ID, including recently finished ones.
func (s *Service) Job(id string) (*eqasm.Job, bool) { return s.batches.Job(id) }

// SubmitWire admits a decoded /v1/batches payload (the httpapi.Backend
// contract): SubmitBatch behind the wire-to-spec conversion.
func (s *Service) SubmitWire(ctx context.Context, req wire.BatchRequest) (wire.Batch, error) {
	spec, err := BatchFromWire(req)
	if err != nil {
		return nil, err
	}
	j, err := s.admit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return j.Batch, nil
}

// Batch is Job behind the httpapi.Backend contract.
func (s *Service) Batch(id string) (wire.Batch, bool) { return s.batches.Batch(id) }

// StatsPayload is Stats as the /v1/stats body (httpapi.Backend).
func (s *Service) StatsPayload() any { return s.Stats() }

// preparePlan forces a resolved program's execution plan — at submit
// time, never on the shot hot path — and accounts the reuse counters.
// The plan lives on the program object itself, so a cache-resident
// program plans exactly once for all jobs and batches that hash to it.
func (s *Service) preparePlan(p *eqasm.Program) error {
	cached, err := p.Prepare()
	if err != nil {
		return err
	}
	if cached {
		s.metrics.planHits.Add(1)
	} else {
		s.metrics.planMisses.Add(1)
	}
	return nil
}

// Compile builds the program that source text in format denotes under
// cfg: eQASM assembles against Machine; cQASM and OpenQASM compile with
// the InitWaitCycles and SOMQ policy on top. Every tier that turns wire
// text into a program goes through it — the coordinator with its
// workers' configuration — so a request routed through the coordinator
// runs the program a worker would have built from the same text.
func (cfg Config) Compile(source, format string) (*eqasm.Program, error) {
	if format != FormatCQASM && format != FormatOpenQASM {
		return eqasm.Assemble(source, cfg.Machine...)
	}
	cfg = cfg.withDefaults()
	opts := append(append([]eqasm.Option{}, cfg.Machine...),
		eqasm.WithInitWaitCycles(cfg.InitWaitCycles))
	if cfg.SOMQ {
		opts = append(opts, eqasm.WithSOMQ())
	}
	if format == FormatCQASM {
		return eqasm.CompileCircuit(source, opts...)
	}
	return eqasm.CompileOpenQASM(source, opts...)
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	n := s.batches.Counts()
	hits, misses, entries := s.cache.Stats()
	var profile map[string]int64
	s.profMu.Lock()
	if len(s.gateProfile) > 0 {
		profile = make(map[string]int64, len(s.gateProfile))
		for k, v := range s.gateProfile {
			profile[k] = v
		}
	}
	s.profMu.Unlock()
	return Stats{
		Workers:           s.cfg.Workers,
		WorkersBusy:       int(s.metrics.workersBusy.Load()),
		QueueDepth:        s.queue.depth(),
		QueueCapacity:     s.cfg.QueueDepth,
		InflightShots:     s.metrics.inflightShots.Load(),
		Draining:          s.draining.Load(),
		JobsSubmitted:     n.JobsSubmitted,
		JobsActive:        n.JobsActive,
		JobsCompleted:     n.JobsCompleted,
		JobsFailed:        n.JobsFailed,
		JobsCancelled:     n.JobsCancelled,
		JobsRejected:      s.metrics.jobsRejected.Load(),
		RequestsSubmitted: n.RequestsSubmitted,
		BatchJobs:         s.metrics.batchJobs.Load(),
		ShotsExecuted:     s.metrics.shotsExecuted.Load(),
		StabilizerShots:   s.metrics.stabilizerShots.Load(),
		BatchesRun:        s.metrics.batchesRun.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEntries:      entries,
		PlanCacheHits:     s.metrics.planHits.Load(),
		PlanCacheMisses:   s.metrics.planMisses.Load(),
		RunNs:             s.metrics.runNs.Load(),
		GateProfile:       profile,
		UptimeSeconds:     time.Since(s.start).Seconds(),
	}
}

// closedErr picks the rejection error for a closed service: draining
// distinguishes "finishing admitted work, resubmit elsewhere" from a
// hard close.
func (s *Service) closedErr() error {
	if s.draining.Load() {
		return ErrDraining
	}
	return ErrClosed
}

// Drain stops accepting new jobs while everything already admitted
// runs to completion. Unlike Shutdown it neither blocks nor stops the
// workers, so the HTTP front end stays up and clients polling their
// jobs still see results land — the loss-free half of a rolling
// restart. Follow with DrainWait, then Shutdown or Close.
func (s *Service) Drain() {
	s.draining.Store(true)
	s.batches.Close()
}

// DrainWait blocks until every admitted job finished or ctx expires
// (in which case the jobs keep running; Close cuts them short).
func (s *Service) DrainWait(ctx context.Context) error {
	drained := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the service has stopped accepting new work
// (Drain, Shutdown or Close was called).
func (s *Service) Draining() bool { return s.draining.Load() }

// Shutdown stops accepting jobs, drains everything already queued, and
// stops the workers. It returns ctx.Err() if the drain outlives ctx (the
// service keeps draining in the background; call Close to cut it short).
func (s *Service) Shutdown(ctx context.Context) error {
	s.Drain()
	if err := s.DrainWait(ctx); err != nil {
		return err
	}
	s.queue.close()
	s.workersWG.Wait()
	return nil
}

// Close cancels every active job and stops the workers.
func (s *Service) Close() error {
	s.draining.Store(true)
	for _, b := range s.batches.Close() {
		b.Cancel()
	}
	s.jobsWG.Wait()
	s.queue.close()
	s.workersWG.Wait()
	return nil
}

// rejectJob accounts for a job that never entered the queue.
func (s *Service) rejectJob(j *jobRun) {
	j.Release()
	s.metrics.jobsRejected.Add(1)
}
