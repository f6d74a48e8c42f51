package eqasm

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"eqasm/internal/microarch"
	"eqasm/internal/plan"
	"eqasm/internal/wire"
)

// SeedStride separates the random streams of sibling executions: worker
// (or batch) w runs at base seed + w*SeedStride.
const SeedStride = microarch.SeedStride

// RunOptions tunes one Backend execution. The zero value runs the
// backend's configured defaults (WithShots, WithSeed, WithWorkers).
type RunOptions struct {
	// Shots is the repetition count; 0 uses the backend default.
	Shots int
	// Seed, when nonzero, overrides the backend's base seed for this
	// run's random streams.
	Seed int64
	// Workers, when nonzero, overrides the backend's shot fan-out.
	// Workers == 1 executes sequentially on one machine and is
	// bit-identical to the classic single-machine shot loop.
	Workers int
	// Backend, when non-empty, overrides the chip-simulation backend
	// for this run: "auto", "statevector", "densitymatrix" or
	// "stabilizer" (see WithBackend). The empty string uses the
	// backend's configured selection.
	Backend string
	// Params binds the program's symbolic rotation parameters (name →
	// angle in radians) with the same semantics as RunRequest.Params,
	// which takes precedence when both are set.
	Params map[string]float64
	// Fusion, when non-empty, overrides plan-time gate fusion for this
	// run: FusionOn ("on") or FusionOff ("off"). The empty string uses
	// the backend's WithFusion setting (default on). Fusion never
	// changes results — fixed-seed runs are identical either way — so
	// "off" exists for A/B benchmarking and per-gate profiling.
	Fusion string
}

// Measurement is one completed measurement of a shot, in completion
// order.
type Measurement struct {
	Qubit  int
	Result int
}

// ExecStats are execution counters: of one shot (ShotResult.Stats,
// Result.Stats) or summed over many (Result.TotalStats). The type is
// declared with the service wire schema (its JSON tags are the wire
// format); see internal/wire for the field list. Add accumulates one
// set of counters into another.
type ExecStats = wire.ExecStats

func execStats(m *microarch.Machine) ExecStats {
	st := m.Stats()
	return ExecStats{
		Instructions:  st.InstructionsExecuted,
		Bundles:       st.BundlesIssued,
		QuantumOps:    st.QuantumOpsTriggered,
		CancelledOps:  st.OpsCancelled,
		FMRStallTicks: st.FMRStallTicks,
		DurationNs:    st.FinalTimeNs,
	}
}

// ShotResult is one shot's outcome on a result stream.
type ShotResult struct {
	// Shot is the repetition index within its request (-1 on a terminal
	// error message).
	Shot int
	// Request is the index of the originating RunRequest within the
	// job's batch (0 for single-program runs).
	Request int
	// Key is the histogram key: the last result per measured qubit,
	// qubits ascending ("" when the shot measures nothing).
	Key string
	// Measurements lists every completed measurement in completion
	// order.
	Measurements []Measurement
	// Stats are the shot's execution counters.
	Stats ExecStats
	// Trace is the rendered device-operation trace (WithDeviceTrace).
	Trace []string
	// Err reports a failure: a shot fault (*RuntimeError) or a
	// cancellation cause. On a single-program stream it is terminal —
	// no further results follow; on a batch stream it ends only the
	// request named by Request, and later requests still deliver.
	Err error
}

// Result is a finished execution's aggregate outcome. The JSON tags
// are the machine-readable rendering used by cmd/eqasm-run -json.
type Result struct {
	// Shots is the number of shots actually executed (may be below the
	// request when the run was cancelled or failed mid-way).
	Shots int `json:"shots"`
	// Histogram counts measurement outcomes; keys are bitstrings over
	// the measured qubits in ascending qubit order (the last result per
	// qubit within a shot). A program measuring nothing contributes to
	// the "" key.
	Histogram map[string]int `json:"histogram"`
	// Qubits lists the measured qubits, ascending — the bit order of
	// the histogram keys.
	Qubits []int `json:"qubits,omitempty"`
	// Stats are the execution counters of the last completed shot only
	// — a sample, useful because identical shots of one program retire
	// near-identical instruction streams. For aggregates over the whole
	// run use TotalStats.
	Stats ExecStats `json:"stats"`
	// TotalStats sums every executed shot's counters.
	TotalStats ExecStats `json:"total_stats"`
	// Trace is the device-operation trace of the first traced shot
	// (WithDeviceTrace).
	Trace []string `json:"trace,omitempty"`
	// Backend names the chip simulator the run executed on:
	// "statevector", "densitymatrix" or "stabilizer" (empty on remote
	// results from servers predating backend selection).
	Backend string `json:"backend,omitempty"`
	// GateProfile counts the kernels the run actually executed per
	// shot, as classified by the decode-once plan: per-site kinds
	// (e.g. "gate1.hadamard", "gate2.cphase", "measure") and, when the
	// run used plan-time gate fusion, fused-kernel kinds
	// ("fused.gate1.generic", ...) plus the fusion counters
	// "fusion.sites.total" / "fusion.sites.fused" / "fusion.elided"
	// (the fused/unfused site ratio). Nil when the plan was not built.
	GateProfile map[string]int `json:"gate_profile,omitempty"`
	// Duration is the wall-clock execution time.
	Duration time.Duration `json:"duration_ns"`
}

// Backend executes bound programs: the in-process Simulator and the
// job-service Client both implement it, so callers switch between local
// simulation and remote serving without rewiring. Submit and RunStream
// hand back a job (RunStream its stream); Run is a blocking call that
// returns one Result. The Simulator's Run executes on the caller's
// goroutine with no job at all; remote backends await a one-request
// job.
type Backend interface {
	// Submit enqueues a batch of requests for asynchronous execution
	// and returns immediately with the job handle. Requests execute in
	// order; each honors its own RunOptions (shots, seed, workers)
	// exactly as an individual Run would, so a batch of N requests is
	// bit-identical per request to N sequential Run calls at the same
	// seeds. The batch's lifetime is bound to ctx: a ctx that expires
	// while the job is queued or running cancels it.
	Submit(ctx context.Context, reqs ...RunRequest) (*Job, error)
	// Run executes the program and aggregates the outcome histogram.
	// On failure or cancellation it returns the partial Result
	// alongside the error.
	Run(ctx context.Context, p *Program, opts RunOptions) (*Result, error)
	// RunStream executes the program and delivers each shot's outcome
	// as it completes. The channel closes when the run finishes; a
	// failure or cancellation delivers one final ShotResult with Err
	// set (dropped only when the consumer has stopped receiving). The
	// caller must drain the channel or cancel ctx.
	RunStream(ctx context.Context, p *Program, opts RunOptions) (<-chan ShotResult, error)
}

// Simulator is the in-process Backend: it executes programs on pooled,
// reseedable QuMA_v2 machines simulated at cycle level, fanning shots
// over workers and checking ctx between shots. Machines are pooled per
// instruction-set context, so mixed workloads (different chips or
// instantiations) coexist on one Simulator. Safe for concurrent use.
type Simulator struct {
	cfg *config
	// defaultStack is the simulator's own configured context; programs
	// bound to other contexts still run (each on its own pool), but
	// this is the chip identity the simulator advertises.
	defaultStack stack

	mu    sync.Mutex
	pools map[poolKey]*microarch.Pool
}

// poolKey identifies one machine pool: the instruction-set context,
// the chip-simulation backend its machines are built with, and whether
// fusion is disabled on them.
type poolKey struct {
	st       stack
	kind     string
	noFusion bool
}

var _ Backend = (*Simulator)(nil)

// NewSimulator builds a simulator Backend from the execution options
// (WithSeed, WithNoise, WithBackend, WithDeviceTrace, WithShots,
// WithWorkers, ...).
func NewSimulator(opts ...Option) (*Simulator, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	// Fail fast on unresolvable context options instead of failing the
	// first Run.
	st, err := cfg.resolveStack()
	if err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, defaultStack: st, pools: map[poolKey]*microarch.Pool{}}, nil
}

// Seed returns the simulator's base seed (WithSeed).
func (s *Simulator) Seed() int64 { return s.cfg.seed }

// Chip names the simulator's configured topology.
func (s *Simulator) Chip() string { return s.defaultStack.topo.Name }

// pool returns the machine pool for one instruction-set context,
// backend kind and fusion setting, creating it on first use.
func (s *Simulator) pool(st stack, kind string, noFusion bool) *microarch.Pool {
	key := poolKey{st: st, kind: kind, noFusion: noFusion}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pools[key]; ok {
		return p
	}
	p := microarch.NewPool(microarch.Config{
		Topo:             st.topo,
		OpConfig:         st.opCfg,
		Inst:             st.inst,
		Noise:            s.cfg.noise.internal(),
		UseDensityMatrix: kind == BackendDensityMatrix,
		UseStabilizer:    kind == BackendStabilizer,
		RecordDeviceOps:  s.cfg.trace,
		MockMeasure:      s.cfg.mock,
		DisableFusion:    noFusion,
	})
	s.pools[key] = p
	return p
}

// resolveBackend turns a requested backend name ("" for the
// simulator's configured choice) into the concrete simulator kind for
// one program, applying the auto-selection rule: state vector under
// noise, the stabilizer tableau for noiseless Clifford-only plans,
// state vector otherwise. A parametric plan classifies per bound
// point: the request's binding (when non-nil) decides whether every
// bound rotation is Clifford.
func (s *Simulator) resolveBackend(p *Program, b *plan.Binding, requested string) (string, error) {
	name := requested
	if name == "" {
		name = s.cfg.backendName
	}
	switch name {
	case "", BackendAuto:
		if s.cfg.noise != (NoiseModel{}) {
			return BackendStateVector, nil
		}
		if b != nil {
			if b.CliffordOnly() {
				return BackendStabilizer, nil
			}
			return BackendStateVector, nil
		}
		if ex, _, err := p.executable(); err == nil && ex.CliffordOnly() {
			return BackendStabilizer, nil
		}
		return BackendStateVector, nil
	case BackendStabilizer:
		if s.cfg.noise != (NoiseModel{}) {
			return "", fmt.Errorf("eqasm: the stabilizer backend cannot simulate noise; drop the noise model or choose %q", BackendStateVector)
		}
		return BackendStabilizer, nil
	default:
		return name, nil
	}
}

// plan resolves one request's execution parameters against the
// simulator's defaults, rejecting invalid options.
func (s *Simulator) plan(r RunRequest) (pl runPlan, err error) {
	opts := r.Options
	pl.params = r.params()
	pl.shots = opts.Shots
	if pl.shots < 0 {
		return runPlan{}, fmt.Errorf("eqasm: negative shot count %d", pl.shots)
	}
	if pl.shots == 0 {
		pl.shots = s.cfg.shots
	}
	pl.seed = opts.Seed
	if pl.seed == 0 {
		pl.seed = s.cfg.seed
	}
	pl.workers = opts.Workers
	if pl.workers < 0 {
		return runPlan{}, fmt.Errorf("eqasm: negative worker count %d", pl.workers)
	}
	if pl.workers == 0 {
		pl.workers = s.cfg.workers
	}
	if !validBackendName(opts.Backend) {
		return runPlan{}, fmt.Errorf("eqasm: unknown backend %q (valid: auto, statevector, densitymatrix, stabilizer)", opts.Backend)
	}
	pl.backend = opts.Backend
	switch opts.Fusion {
	case "":
		pl.noFusion = s.cfg.fusionOff
	case FusionOn:
	case FusionOff:
		pl.noFusion = true
	default:
		return runPlan{}, fmt.Errorf("eqasm: unknown fusion setting %q (valid: %q, %q)", opts.Fusion, FusionOn, FusionOff)
	}
	return pl, nil
}

// renderTrace renders the machine's device-operation trace, nil when
// tracing is off.
func renderTrace(m *microarch.Machine) []string {
	trace := m.DeviceTrace()
	if len(trace) == 0 {
		return nil
	}
	out := make([]string, len(trace))
	for i, op := range trace {
		out[i] = op.String()
	}
	return out
}

// shotOutcome renders one completed shot's machine state; key is the
// shot's histogram key.
func shotOutcome(shot int, m *microarch.Machine, key []byte) ShotResult {
	recs := m.Measurements()
	sr := ShotResult{Shot: shot, Stats: execStats(m), Trace: renderTrace(m)}
	if len(recs) > 0 {
		sr.Measurements = make([]Measurement, len(recs))
		for i, r := range recs {
			sr.Measurements[i] = Measurement{Qubit: r.Qubit, Result: r.Result}
		}
		sr.Key = string(key)
	}
	return sr
}

// histogram counts shots per histogram key: the last result per
// measured qubit, qubits ascending. It reuses its buffers across shots,
// so a shot whose key was seen before costs no allocation.
type histogram struct {
	// last holds each qubit's last result during key; -1 = unmeasured.
	last   []int8
	qubits []int
	buf    []byte
	counts map[string]*int
}

// key renders recs' histogram key into the reused buffer and leaves
// the shot's measured qubits, ascending, in h.qubits.
func (h *histogram) key(recs []microarch.MeasurementRecord) []byte {
	h.qubits = h.qubits[:0]
	for _, r := range recs {
		for r.Qubit >= len(h.last) {
			h.last = append(h.last, -1)
		}
		if h.last[r.Qubit] < 0 {
			h.qubits = append(h.qubits, r.Qubit)
		}
		h.last[r.Qubit] = 0
		if r.Result != 0 {
			h.last[r.Qubit] = 1
		}
	}
	slices.Sort(h.qubits)
	h.buf = h.buf[:0]
	for _, q := range h.qubits {
		h.buf = append(h.buf, '0'+byte(h.last[q]))
		h.last[q] = -1
	}
	return h.buf
}

// add counts one shot under key.
func (h *histogram) add(key []byte) {
	if n := h.counts[string(key)]; n != nil {
		*n++
		return
	}
	if h.counts == nil {
		h.counts = map[string]*int{}
	}
	n := 1
	h.counts[string(key)] = &n
}

// fill writes the counts into out.
func (h *histogram) fill(out map[string]int) {
	for k, n := range h.counts {
		out[k] = *n
	}
}

// fanShots runs p's shots through the machine pool of its context and
// backend kind, replaying the program's shared execution plan (lowered
// on first use). A non-nil binding, made from that plan, patches its
// parameter slots.
func (s *Simulator) fanShots(ctx context.Context, p *Program, b *plan.Binding, kind string, noFusion bool, seed int64, shots, workers int,
	observe func(shot int, m *microarch.Machine, runErr error) error) error {
	ex, _, err := p.executable()
	if err != nil {
		return err
	}
	return s.pool(p.st, kind, noFusion).FanPlan(ctx, ex, b, seed, shots, workers, observe)
}

// runPlan is one request's resolved execution parameters.
type runPlan struct {
	shots   int
	seed    int64
	workers int
	backend string
	// noFusion disables plan-time gate fusion for the request
	// (RunOptions.Fusion, falling back to WithFusion).
	noFusion bool
	// params is the request's effective parameter point
	// (RunRequest.Params, falling back to RunOptions.Params).
	params map[string]float64
}

// Submit implements Backend: it validates every request up front,
// returns the job handle immediately, and executes the batch on a
// driver goroutine — the async job layer over the machine-pool shot
// fan-out. Requests execute in submit order, each on its own resolved
// options (shots, seed, workers — worker w of request r runs at the
// request's seed + w*SeedStride), so per-request results are
// bit-identical to individual Run calls at the same seeds. A request
// failure fails that request only; sibling requests still run. The
// job is bound to ctx for its whole lifetime.
func (s *Simulator) Submit(ctx context.Context, reqs ...RunRequest) (*Job, error) {
	return s.submitJob(ctx, false, reqs)
}

func (s *Simulator) submitJob(ctx context.Context, streaming bool, reqs []RunRequest) (*Job, error) {
	ctx, err := normalizeBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	plans := make([]runPlan, len(reqs))
	for i, r := range reqs {
		pl, err := s.plan(r)
		if err != nil {
			if len(reqs) > 1 {
				err = fmt.Errorf("request %d: %w", i, err)
			}
			return nil, err
		}
		plans[i] = pl
	}
	job := newJob(localJobID(), reqs)
	if streaming {
		job.streaming.Store(true)
	}
	jctx, cancel := context.WithCancelCause(ctx)
	job.cancelHook = func() { cancel(context.Canceled) }
	go s.runJob(jctx, cancel, job, reqs, plans)
	return job, nil
}

// runJob is the job driver: requests in order, finalize at the end.
// A cancellation (Cancel or the submit ctx) stops the batch; any other
// request failure is recorded and the next request still runs.
func (s *Simulator) runJob(ctx context.Context, cancel context.CancelCauseFunc,
	j *Job, reqs []RunRequest, plans []runPlan) {
	defer cancel(nil)
	for i := range reqs {
		if ctx.Err() != nil {
			cause := context.Cause(ctx)
			j.emitTerminal(i, cause, terminalGrace)
			j.stopRemaining(i, cause)
			break
		}
		j.markRunning(i)
		emit := func(shot int, m *microarch.Machine, key []byte) error {
			if !j.streaming.Load() {
				return nil
			}
			sr := shotOutcome(shot, m, key)
			sr.Request = i
			return j.emit(ctx, sr)
		}
		res, err := s.executeRequest(ctx, reqs[i].Program, plans[i], emit)
		j.finishRequest(i, res, err)
		if err != nil {
			if isCancellation(err) {
				j.emitTerminal(i, err, terminalGrace)
				j.stopRemaining(i+1, err)
				break
			}
			grace := siblingGrace
			if i == len(reqs)-1 {
				grace = terminalGrace // nothing queued behind the message
			}
			j.emitTerminal(i, err, grace)
		}
	}
	j.finalize()
}

// executeRequest runs one request's shots through the machine pool,
// aggregating the histogram and stats. A non-nil emit is handed every
// completed shot (its machine and histogram key) for a stream
// consumer; its error stops the run.
func (s *Simulator) executeRequest(ctx context.Context, p *Program, pl runPlan,
	emit func(shot int, m *microarch.Machine, key []byte) error) (*Result, error) {
	res := &Result{Histogram: map[string]int{}}
	// Bind the parameter point once per request: the shared plan is
	// patched with a handful of per-slot gate matrices, never rebuilt.
	var binding *plan.Binding
	ex, _, planErr := p.executable()
	switch {
	case planErr == nil && (ex.Parametric() || len(pl.params) > 0):
		b, err := ex.Bind(pl.params)
		if err != nil {
			return res, err
		}
		binding = b
	case planErr != nil && len(pl.params) > 0:
		return res, fmt.Errorf("eqasm: cannot bind parameters without an execution plan: %w", planErr)
	}
	kind, err := s.resolveBackend(p, binding, pl.backend)
	if err != nil {
		return res, err
	}
	res.Backend = kind
	var hist histogram
	start := time.Now()
	err = s.fanShots(ctx, p, binding, kind, pl.noFusion, pl.seed, pl.shots, pl.workers,
		func(shot int, m *microarch.Machine, runErr error) error {
			if runErr != nil {
				return wrapShotErr(shot, m, runErr)
			}
			if res.Shots == 0 {
				// The first completed shot's machine reports the
				// kernels it actually executed (fused kinds under
				// fusion).
				res.GateProfile = m.ExecutedGateProfile()
			}
			st := execStats(m)
			res.Shots++
			key := hist.key(m.Measurements())
			hist.add(key)
			if res.Qubits == nil && len(hist.qubits) > 0 {
				res.Qubits = slices.Clone(hist.qubits)
			}
			res.Stats = st
			res.TotalStats.Add(st)
			if res.Trace == nil {
				res.Trace = renderTrace(m)
			}
			if emit != nil {
				return emit(shot, m, key)
			}
			return nil
		})
	res.Duration = time.Since(start)
	hist.fill(res.Histogram)
	if res.GateProfile == nil && planErr == nil {
		// No shot completed: the static plan profile stands in.
		res.GateProfile = ex.GateProfile()
	}
	return res, err
}

// Run implements Backend as a plain call on the caller's goroutine: no
// job, no driver. It validates the request as Submit does; when ctx is
// already done it returns a zero-shot Result beside the cancellation
// cause, and otherwise it executes the shots, returning the partial
// Result beside the error on a failure or cancellation. With Workers ==
// 1 (the default) and a fixed seed, the execution is bit-identical to
// a sequential shot loop on a freshly built machine at that seed.
func (s *Simulator) Run(ctx context.Context, p *Program, opts RunOptions) (*Result, error) {
	req := RunRequest{Program: p, Options: opts}
	ctx, err := normalizeBatch(ctx, []RunRequest{req})
	if err != nil {
		return nil, err
	}
	pl, err := s.plan(req)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return &Result{Histogram: map[string]int{}}, context.Cause(ctx)
	}
	return s.executeRequest(ctx, p, pl, nil)
}

// RunStream implements Backend as sugar over Submit: a one-request
// batch with the stream attached before execution starts, so every
// shot is delivered. With Workers > 1 shots may arrive out of order
// (each carries its index).
func (s *Simulator) RunStream(ctx context.Context, p *Program, opts RunOptions) (<-chan ShotResult, error) {
	job, err := s.submitJob(ctx, true, []RunRequest{{Program: p, Options: opts}})
	if err != nil {
		return nil, err
	}
	return job.Stream(), nil
}

// terminalGrace bounds how long a stream waits to hand its final error
// message to a consumer that is not currently at the channel. Generous,
// because nothing else is stalled by waiting on a job-ending message —
// only a lingering goroutine on a stream the consumer abandoned
// without draining.
const terminalGrace = 30 * time.Second

// siblingGrace bounds the same wait for a mid-batch failure message:
// the batch driver delivers it inline, so waiting here stalls the
// sibling requests still queued behind it.
const siblingGrace = time.Second

// sendTerminal delivers a stream's error message. The run context may
// already be cancelled here (cancellation is itself a terminal error),
// so racing the send against ctx.Done would drop the message
// nondeterministically even with an attentive consumer; instead the
// send gets a bounded grace period, dropping the message only when the
// consumer does not return to the channel within it.
func sendTerminal(ch chan<- ShotResult, sr ShotResult, grace time.Duration) {
	select {
	case ch <- sr:
	default:
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case ch <- sr:
		case <-t.C:
		}
	}
}
