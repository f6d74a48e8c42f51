package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eqasm"
	"eqasm/internal/wire"
)

// Priority orders jobs in the queue; higher runs first, FIFO within a
// level.
type Priority int

const (
	PriorityLow    Priority = -1
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 1
)

// ParsePriority maps the wire names used by the HTTP API.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(s) {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("service: unknown priority %q", s)
}

func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	}
	return "normal"
}

// Format names the language of a request's Source text.
const (
	// FormatEQASM is eQASM assembly (the default; "" means the same).
	FormatEQASM = "eqasm"
	// FormatCQASM is hardware-independent cQASM circuit text, compiled
	// server-side through the pass pipeline before execution.
	FormatCQASM = "cqasm"
	// FormatOpenQASM is OpenQASM 2.0 circuit text, compiled server-side
	// through the same pipeline via the OpenQASM front end.
	FormatOpenQASM = "openqasm"
)

// RequestSpec describes one program execution within a batch job: the
// wire request itself (see wire.Request for the fields), with the
// service's validation and cache keying. Beyond the wire docs: a
// nonzero Seed replaces the service's base seed, and shot batch i runs
// at Seed + i*eqasm.SeedStride. A request splits into shot batches
// exactly as a single-request job with the same shot count would, so
// its results are bit-identical whether it is submitted alone or
// inside a batch. Seed must be non-negative: a negative base could
// derive a batch seed of exactly 0, which the execution backend reads
// as "use the default". Backend, Fusion and Params do not affect
// program caching — the same assembled program serves every backend,
// fusion setting and parameter point, so every point of a sweep batch
// shares one cached program, one execution plan and (via
// content-affinity routing) one worker's caches.
type RequestSpec wire.Request

// BatchSpec describes a batch job: N program requests admitted,
// queued and retired as one unit, with per-request histograms.
type BatchSpec struct {
	// Requests are the programs to execute; 1..MaxBatchRequests.
	Requests []RequestSpec
	// Priority orders the whole batch against other jobs in the queue.
	Priority Priority
}

// JobSpec describes a single-program job — the classic surface, now
// sugar over a one-request BatchSpec.
type JobSpec struct {
	Source   string
	Format   string
	Shots    int
	Priority Priority
	Seed     int64
	Chip     string
	Backend  string
	Fusion   string
	Params   map[string]float64
}

// batch lifts the single-program spec into the batch shape every job
// uses internally.
func (spec JobSpec) batch() BatchSpec {
	return BatchSpec{
		Priority: spec.Priority,
		Requests: []RequestSpec{{
			Source:  spec.Source,
			Format:  spec.Format,
			Shots:   spec.Shots,
			Seed:    spec.Seed,
			Chip:    spec.Chip,
			Backend: spec.Backend,
			Fusion:  spec.Fusion,
			Params:  spec.Params,
		}},
	}
}

// BatchFromWire converts a decoded /v1/batches payload into a batch
// spec: the requests already have the spec's shape, only the priority
// name needs parsing.
func BatchFromWire(req wire.BatchRequest) (BatchSpec, error) {
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		return BatchSpec{}, err
	}
	spec := BatchSpec{Priority: prio, Requests: make([]RequestSpec, len(req.Requests))}
	for i, r := range req.Requests {
		spec.Requests[i] = RequestSpec(r)
	}
	return spec, nil
}

// MaxJobShots bounds a single request's shot count: large enough for
// any real tomography or RB campaign, small enough that batch
// arithmetic cannot overflow and one request cannot monopolize the
// pool indefinitely.
const MaxJobShots = 100_000_000

// MaxBatchRequests bounds one batch's request count (sweep grids are
// hundreds of points; the queue is the real limiter beyond that).
const MaxBatchRequests = 1024

func (spec RequestSpec) validate(i int) error {
	fail := func(err error) error {
		return fmt.Errorf("service: request %d: %w", i, err)
	}
	if spec.Source == "" {
		return fail(errors.New("empty source"))
	}
	switch spec.Format {
	case "", FormatEQASM, FormatCQASM, FormatOpenQASM:
	default:
		return fail(fmt.Errorf("unknown format %q (valid: %s, %s, %s)",
			spec.Format, FormatEQASM, FormatCQASM, FormatOpenQASM))
	}
	if spec.Shots < 0 {
		return fail(fmt.Errorf("negative shot count %d", spec.Shots))
	}
	if spec.Shots > MaxJobShots {
		return fail(fmt.Errorf("shot count %d exceeds the per-request limit %d",
			spec.Shots, MaxJobShots))
	}
	if spec.Seed < 0 {
		return fail(fmt.Errorf("negative seed %d", spec.Seed))
	}
	switch spec.Backend {
	case "", eqasm.BackendAuto, eqasm.BackendStateVector, eqasm.BackendDensityMatrix, eqasm.BackendStabilizer:
	default:
		return fail(fmt.Errorf("unknown backend %q (valid: %s, %s, %s, %s)", spec.Backend,
			eqasm.BackendAuto, eqasm.BackendStateVector, eqasm.BackendDensityMatrix, eqasm.BackendStabilizer))
	}
	switch spec.Fusion {
	case "", eqasm.FusionOn, eqasm.FusionOff:
	default:
		return fail(fmt.Errorf("unknown fusion setting %q (valid: %s, %s)", spec.Fusion,
			eqasm.FusionOn, eqasm.FusionOff))
	}
	for name, v := range spec.Params {
		if name == "" {
			return fail(errors.New("empty parameter name"))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(fmt.Errorf("parameter %q is not a finite angle (%v)", name, v))
		}
	}
	return nil
}

// Validate checks the batch against the service's admission rules
// (request count, source, format, shots, seed, backend, fusion and
// parameter values) without resolving any program.
func (spec BatchSpec) Validate() error {
	if len(spec.Requests) == 0 {
		return errors.New("service: empty batch")
	}
	if len(spec.Requests) > MaxBatchRequests {
		return fmt.Errorf("service: batch of %d requests exceeds the limit %d",
			len(spec.Requests), MaxBatchRequests)
	}
	for i, r := range spec.Requests {
		if err := r.validate(i); err != nil {
			return err
		}
	}
	return nil
}

func (spec BatchSpec) withDefaults() BatchSpec {
	reqs := make([]RequestSpec, len(spec.Requests))
	copy(reqs, spec.Requests)
	for i := range reqs {
		if reqs[i].Shots == 0 {
			reqs[i].Shots = 1
		}
	}
	spec.Requests = reqs
	return spec
}

// CacheKey is the content hash under which the compiled program is
// cached: the source text prefixed by its format. cQASM, OpenQASM and eQASM sources hash
// into disjoint key spaces, so compiled circuits are cached alongside
// assembled programs without collisions (identical circuit text in two
// front-end syntaxes is still two cache entries — the key is content,
// not meaning). Requests of one batch that hash alike share one
// program (and one execution plan). The coordinator tier keys both its
// own cache and its content-affinity routing on the same hash, so the
// requests it steers to one worker are exactly the ones that hit that
// worker's caches. A gate's structural angle operand (literal value or
// parameter name) is program content and hashes; the Params bind map
// deliberately does not — a sweep's points differ only in Params, so
// all of them share one cache entry and one plan.
func (spec RequestSpec) CacheKey() string {
	h := sha256.New()
	switch spec.Format {
	case FormatCQASM:
		fmt.Fprintf(h, "cqasm:")
	case FormatOpenQASM:
		fmt.Fprintf(h, "openqasm:")
	default:
		fmt.Fprintf(h, "source:")
	}
	h.Write([]byte(spec.Source))
	return hex.EncodeToString(h.Sum(nil))
}

// State is a job's (or one request's) lifecycle phase.
type State = wire.State

const (
	StateQueued    = wire.StateQueued
	StateRunning   = wire.StateRunning
	StateCompleted = wire.StateCompleted
	StateFailed    = wire.StateFailed
	StateCancelled = wire.StateCancelled
)

// Result is a finished job's aggregate outcome. Requests always carries
// the per-request results; the top-level Histogram/Qubits/Stats mirror
// request 0 for single-request jobs (the classic surface) and are empty
// for multi-request batches, whose outcomes are per request.
type Result struct {
	JobID string
	// Shots is the number of shots actually executed, summed across
	// requests (less than requested when the job was cancelled
	// mid-run).
	Shots int
	// Histogram counts measurement outcomes of a single-request job.
	// Keys are bitstrings over the measured qubits in ascending qubit
	// order (the last result per qubit within a shot); a program that
	// measures nothing contributes to the "" key.
	Histogram map[string]int
	// Qubits lists the measured qubits, ascending — the bit order of
	// the histogram keys (single-request jobs).
	Qubits []int
	// Stats are the counters of the last executed shot (single-request
	// jobs; see Requests for batches).
	Stats eqasm.ExecStats
	// TotalStats sums every executed shot's counters across all
	// requests.
	TotalStats eqasm.ExecStats
	// Requests are the per-request outcomes, in batch order.
	Requests []wire.RequestStatus
	// CacheHit reports that every request's program came from the
	// cache.
	CacheHit bool
	// AssembleTime is the assembly/compilation cost paid by this job
	// (zero on cache hits), summed across requests.
	AssembleTime time.Duration
	// QueueTime spans submit to first batch start.
	QueueTime time.Duration
	// RunTime spans first batch start to last batch end.
	RunTime time.Duration
	// StartedAt and FinishedAt bound the job's execution window.
	StartedAt  time.Time
	FinishedAt time.Time
}

// requestRun is the mutable execution state of one request (guarded by
// the job mutex, except the skip flag the workers read lock-free).
type requestRun struct {
	spec         RequestSpec
	program      *eqasm.Program
	cacheHit     bool
	assembleTime time.Duration

	// skip makes workers drop this request's queued batches after a
	// failure without touching the job mutex.
	skip atomic.Bool

	// runCtx is this request's slice of the job run context: cancelled
	// when the request fails, so its own in-flight batches stop at the
	// next shot boundary while sibling requests keep running (a
	// job-level cancel propagates through the parent context).
	runCtx    context.Context
	cancelRun context.CancelCauseFunc

	state     State
	remaining int // outstanding shot batches
	started   time.Time
	finished  time.Time
	shotsRun  int
	backend   string
	hist      map[string]int
	qubits    []int
	stats     eqasm.ExecStats
	statsIdx  int // highest batch index that contributed stats
	total     eqasm.ExecStats
	err       error
}

// Job is the handle of a submitted job: a future over Result with
// per-request state.
type Job struct {
	ID string

	priority  Priority
	seq       int64
	svc       *Service
	submitted time.Time
	stopWatch func() bool

	// runCtx is cancelled (with the job's cause) when the job stops:
	// the execution backend checks it between shots, so running
	// batches stop at the next shot boundary.
	runCtx    context.Context
	cancelRun context.CancelCauseFunc

	// cancelled mirrors the job-level cancellation for the workers'
	// queue-skip check; an atomic read keeps the dispatch path off the
	// job mutex.
	cancelled atomic.Bool

	mu        sync.Mutex
	state     State
	started   time.Time
	finished  time.Time
	remaining int // outstanding shot batches across all requests
	reqs      []*requestRun
	// err is the job's first failure (a request error or the
	// cancellation cause); cancelCause is set only by a job-level
	// cancel, so curtailed sibling requests report why they stopped
	// rather than inheriting another request's fault.
	err         error
	cancelCause error
	result      *Result
	done        chan struct{}
}

// batch is one unit of work handed to a worker: a shot range of one
// request.
type batch struct {
	job   *Job
	req   int
	index int
	shots int
}

// split partitions every request's shots into worker batches. Each
// request is split independently — batch size scales with the
// request's own shot count exactly as a single-request job's would —
// so per-request seed derivation (and therefore results) are
// bit-identical whether the request is submitted alone or in a batch.
func (j *Job) split(cfg Config) []*batch {
	maxBatches := min(cfg.MaxJobBatches, cfg.QueueDepth)
	var out []*batch
	for r, req := range j.reqs {
		batchShots := max(cfg.BatchShots,
			(req.spec.Shots+maxBatches-1)/maxBatches)
		n := 0
		for start, i := 0, 0; start < req.spec.Shots; start, i = start+batchShots, i+1 {
			out = append(out, &batch{job: j, req: r, index: i,
				shots: min(batchShots, req.spec.Shots-start)})
			n++
		}
		req.remaining = n
	}
	return out
}

// Priority returns the job's queue priority.
func (j *Job) Priority() Priority { return j.priority }

// Status returns the job's current lifecycle state.
func (j *Job) Status() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// NumRequests returns the batch width.
func (j *Job) NumRequests() int { return len(j.reqs) }

// Describe renders the job as its /v1/batches wire status: identity,
// lifecycle phase, live per-request statuses and, once terminal, the
// job's failure or cancellation cause.
func (j *Job) Describe() wire.BatchStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := wire.BatchStatus{
		ID:       j.ID,
		Status:   j.state,
		Priority: j.priority.String(),
		Requests: make([]wire.RequestStatus, len(j.reqs)),
	}
	for i, r := range j.reqs {
		st.Requests[i] = r.snapshot(i)
	}
	if j.state.Terminal() && j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Requests snapshots the live per-request statuses (histograms and
// counters included, partial while the request runs).
func (j *Job) Requests() []wire.RequestStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]wire.RequestStatus, len(j.reqs))
	for i, r := range j.reqs {
		out[i] = r.snapshot(i)
	}
	return out
}

// snapshot renders one request's state; j.mu held.
func (r *requestRun) snapshot(i int) wire.RequestStatus {
	rr := wire.RequestStatus{
		Index:      i,
		Tag:        r.spec.Tag,
		Status:     r.state,
		Shots:      r.shotsRun,
		Qubits:     r.qubits,
		Stats:      r.stats,
		TotalStats: r.total,
		CacheHit:   r.cacheHit,
		Backend:    r.backend,
	}
	switch {
	case !r.finished.IsZero():
		rr.RunTime = r.finished.Sub(r.started)
	case !r.started.IsZero():
		rr.RunTime = time.Since(r.started)
	}
	if len(r.hist) > 0 {
		rr.Histogram = make(map[string]int, len(r.hist))
		for k, v := range r.hist {
			rr.Histogram[k] = v
		}
	}
	if r.err != nil {
		rr.Error = r.err.Error()
	}
	return rr
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the job's failure or cancellation cause (nil while the
// job is live or after success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the aggregate outcome, or ErrNotDone before the job
// finishes, or the job's error if it failed or was cancelled.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, ErrNotDone
	}
	return j.result, j.err
}

// Wait blocks until the job finishes or ctx expires. A ctx expiry does
// not cancel the job (cancel via the Submit ctx or Cancel).
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel stops the whole job: queued batches are skipped and running
// batches stop at the next shot boundary. Safe to call at any time.
func (j *Job) Cancel() { j.cancel(context.Canceled) }

func (j *Job) cancel(cause error) {
	j.mu.Lock()
	// Guard on the cancelled flag, not on j.err: a request failure sets
	// j.err while its siblings deliberately keep running, and a later
	// Cancel must still be able to stop them.
	if j.state.Terminal() || j.cancelled.Load() {
		j.mu.Unlock()
		return
	}
	if cause == nil {
		cause = context.Canceled
	}
	j.cancelCause = cause
	if j.err == nil {
		j.err = cause
	}
	j.cancelled.Store(true)
	j.mu.Unlock()
	j.cancelRun(cause)
}

// isCancelled is the workers' fast job-level check before starting a
// batch.
func (j *Job) isCancelled() bool { return j.cancelled.Load() }

// startBatch transitions the job (and the batch's request) to running.
func (j *Job) startBatch(b *batch) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
	}
	if r := j.reqs[b.req]; r.state == StateQueued {
		r.state = StateRunning
		r.started = time.Now()
	}
	j.mu.Unlock()
}

// finishBatch merges one shot batch's outcome into its request; the
// final batch of a request settles the request, the final batch of the
// job finalizes it. A request failure skips that request's remaining
// batches but leaves sibling requests running.
func (j *Job) finishBatch(b *batch, res *eqasm.Result, err error) {
	j.mu.Lock()
	r := j.reqs[b.req]
	if res != nil {
		r.shotsRun += res.Shots
		for k, v := range res.Histogram {
			if r.hist == nil {
				r.hist = make(map[string]int, len(res.Histogram))
			}
			r.hist[k] += v
		}
		if r.qubits == nil && len(res.Qubits) > 0 {
			r.qubits = res.Qubits
		}
		if r.backend == "" {
			r.backend = res.Backend
		}
		if res.Shots > 0 && b.index >= r.statsIdx {
			r.stats = res.Stats
			r.statsIdx = b.index
		}
		r.total.Add(res.TotalStats)
	}
	var failed error
	if err != nil && r.err == nil {
		r.err = err
		r.skip.Store(true)
		failed = err
	}
	if err != nil && j.err == nil {
		j.err = err
	}
	r.remaining--
	if r.remaining == 0 {
		r.settleLocked(j)
	}
	j.remaining--
	last := j.remaining == 0
	if last {
		j.finalizeLocked()
	}
	j.mu.Unlock()
	if failed != nil {
		r.cancelRun(failed) // the request's in-flight batches stop early
	}
	if last {
		j.svc.retire(j)
	}
}

// settleLocked computes a request's terminal state; j.mu held.
func (r *requestRun) settleLocked(j *Job) {
	r.finished = time.Now()
	if r.started.IsZero() {
		r.started = r.finished
	}
	switch {
	case r.err != nil && isCancellation(r.err):
		r.state = StateCancelled
	case r.err != nil:
		r.state = StateFailed
	case j.isCancelled() && r.shotsRun < r.spec.Shots:
		// The job was cancelled before this request ran out its shots.
		r.state = StateCancelled
		r.err = j.cancelCause
		if r.err == nil {
			r.err = j.err
		}
	default:
		r.state = StateCompleted
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finalizeLocked computes the terminal state and result; j.mu held.
func (j *Job) finalizeLocked() {
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	switch {
	case j.err == nil:
		j.state = StateCompleted
		j.svc.metrics.jobsCompleted.Add(1)
	case isCancellation(j.err):
		j.state = StateCancelled
		j.svc.metrics.jobsCancelled.Add(1)
	default:
		j.state = StateFailed
		j.svc.metrics.jobsFailed.Add(1)
	}
	res := &Result{
		JobID:     j.ID,
		CacheHit:  true,
		QueueTime: j.started.Sub(j.submitted),
		RunTime:   j.finished.Sub(j.started),
		StartedAt: j.started, FinishedAt: j.finished,
		Requests: make([]wire.RequestStatus, len(j.reqs)),
	}
	for i, r := range j.reqs {
		res.Requests[i] = r.snapshot(i)
		res.Shots += r.shotsRun
		res.TotalStats.Add(r.total)
		res.CacheHit = res.CacheHit && r.cacheHit
		res.AssembleTime += r.assembleTime
	}
	if len(j.reqs) == 1 {
		r := j.reqs[0]
		res.Histogram = res.Requests[0].Histogram
		res.Qubits = r.qubits
		res.Stats = r.stats
	}
	if res.Histogram == nil {
		res.Histogram = map[string]int{}
	}
	j.result = res
	if j.stopWatch != nil {
		j.stopWatch()
	}
	for _, r := range j.reqs {
		r.cancelRun(nil)
	}
	j.cancelRun(nil) // release the run contexts' resources
	close(j.done)
}
