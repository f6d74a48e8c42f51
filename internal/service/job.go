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

// jobRun is the service's side of one admitted job: its Batch and the
// controller the workers drive it through, the resolved requests with
// their accumulators, and the queue order. Every request's run context
// derives from the Batch's, so a job-level cancellation (Job.Cancel or
// the submit ctx) skips queued batches and stops running ones at the
// next shot boundary.
type jobRun struct {
	*Batch
	ctl  *eqasm.JobController
	seq  int64
	svc  *Service
	reqs []*requestRun

	mu        sync.Mutex
	remaining int // outstanding shot batches across all requests
}

// requestRun is one request of a job: its resolved program, its run
// context, and the accumulator merging its shot batches into one
// eqasm.Result (guarded by jobRun.mu).
type requestRun struct {
	spec    RequestSpec
	program *eqasm.Program

	// runCtx is this request's slice of the job run context. A failing
	// request cancels it with its error: its queued batches are skipped
	// and its in-flight ones stop at the next shot boundary, while
	// sibling requests keep running.
	runCtx    context.Context
	cancelRun context.CancelCauseFunc

	remaining int // outstanding shot batches
	started   time.Time
	res       eqasm.Result
	statsIdx  int // highest batch index that contributed Stats
	err       error
}

// batch is one unit of work handed to a worker: a shot range of one
// request.
type batch struct {
	job   *jobRun
	req   int
	index int
	shots int
}

// maxJobBatches caps one request's batch count: bigger requests get
// proportionally bigger batches instead of flooding the queue, so a
// single huge job still fits in the queue while keeping more than
// enough fan-out to saturate the pool.
const maxJobBatches = 64

// split partitions every request's shots into worker batches. Each
// request is split independently — batch size scales with the
// request's own shot count exactly as a single-request job's would —
// so per-request seed derivation (and therefore results) are
// bit-identical whether the request is submitted alone or in a batch.
func (j *jobRun) split(cfg Config) []*batch {
	maxBatches := min(maxJobBatches, cfg.QueueDepth)
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

// startBatch marks the batch's request running on its first batch.
func (j *jobRun) startBatch(b *batch) {
	j.mu.Lock()
	if r := j.reqs[b.req]; r.started.IsZero() {
		r.started = time.Now()
		j.ctl.MarkRunning(b.req)
	}
	j.mu.Unlock()
}

// finishBatch merges one shot batch's outcome into its request; the
// request's last batch hands the merged result to the controller, the
// job's last batch finalizes the job.
func (j *jobRun) finishBatch(b *batch, res *eqasm.Result, err error) {
	j.mu.Lock()
	r := j.reqs[b.req]
	if res != nil {
		r.merge(b.index, res)
	}
	if err != nil && r.err == nil {
		r.err = err
		r.cancelRun(err)
	}
	if r.remaining--; r.remaining == 0 {
		if !r.started.IsZero() {
			r.res.Duration = time.Since(r.started)
		}
		if cause := context.Cause(j.Context()); r.err == nil && cause != nil && r.res.Shots < r.spec.Shots {
			// The job was cancelled before this request ran out its
			// shots.
			r.err = cause
		}
		j.ctl.Finish(b.req, &r.res, r.err)
	}
	j.remaining--
	last := j.remaining == 0
	j.mu.Unlock()
	if last {
		j.finalize()
	}
}

// merge folds one batch result into the request's: Stats come from the
// highest batch index, everything else accumulates.
func (r *requestRun) merge(index int, res *eqasm.Result) {
	m := &r.res
	m.Shots += res.Shots
	for k, v := range res.Histogram {
		m.Histogram[k] += v
	}
	if m.Qubits == nil && len(res.Qubits) > 0 {
		m.Qubits = res.Qubits
	}
	if m.Backend == "" {
		m.Backend = res.Backend
	}
	if res.Shots > 0 && index >= r.statsIdx {
		m.Stats = res.Stats
		r.statsIdx = index
	}
	m.TotalStats.Add(res.TotalStats)
}

// finalize counts the job's outcome and releases its contexts before
// Finalize closes Done, so a caller woken by Done reads stats that
// include its own job.
func (j *jobRun) finalize() {
	j.svc.batches.Finish(j.Batch)
	j.ctl.Finalize()
	j.svc.jobsWG.Done()
}
