package eqasm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eqasm/internal/wire"
)

// RunRequest is one program execution inside a batch: the program, its
// per-request RunOptions, and an optional caller tag that travels with
// the request through statuses, results and the service wire format
// (sweeps tag each point of a seed or knob grid).
type RunRequest struct {
	// Program is the bound program to execute. Required.
	Program *Program
	// Options are this request's run options; the zero value uses the
	// backend defaults, exactly as in Run.
	Options RunOptions
	// Params binds the program's symbolic rotation parameters for this
	// request (name → angle in radians). A parametric program binds its
	// compiled plan once per request — a handful of 2x2 matrix builds,
	// not a recompile — so a sweep submits one cached program with a
	// different Params point per request. Every parameter must be given
	// exactly once; missing, unknown and non-finite values fail the
	// request. Takes precedence over Options.Params when both are set.
	Params map[string]float64
	// Tag is an opaque caller label echoed back in RequestStatus.
	Tag string
}

// params returns the request's effective parameter point.
func (r RunRequest) params() map[string]float64 {
	if r.Params != nil {
		return r.Params
	}
	return r.Options.Params
}

// JobState is a job's (or a single request's) lifecycle phase, the
// same five values the /v1/batches wire carries (see internal/wire);
// Terminal reports whether the state is final.
type JobState = wire.State

const (
	JobQueued    = wire.StateQueued
	JobRunning   = wire.StateRunning
	JobCompleted = wire.StateCompleted
	JobFailed    = wire.StateFailed
	JobCancelled = wire.StateCancelled
)

// ErrJobNotDone reports a Results call on a job that has not reached a
// terminal state yet; Wait instead of polling.
var ErrJobNotDone = errors.New("eqasm: job not done")

// RequestStatus is the point-in-time state of one request of a batch
// job.
type RequestStatus struct {
	// Index is the request's position in the Submit call.
	Index int
	// Tag echoes RunRequest.Tag.
	Tag string
	// State is the request's lifecycle phase.
	State JobState
	// Result is the request's outcome once it finished (partial when
	// the request failed or was cancelled mid-run; possibly nil when it
	// never started). Treat as read-only: it is shared with Results.
	Result *Result
	// Err is the request's failure or cancellation cause.
	Err error
}

// Job is the handle of a submitted batch: a future over one Result per
// request, with live per-request status, streaming and cancellation.
// Both backends return the same Job type from Submit — the in-process
// Simulator drives it from an execution goroutine, the Client from a
// poll loop over the service's batch API — so callers hold one handle
// type regardless of where the batch runs. Safe for concurrent use.
type Job struct {
	id string

	// cancelHook is the backend's cancellation action (cancel the run
	// context; additionally DELETE the remote batch for the Client).
	cancelHook func()
	cancelOnce sync.Once

	// streaming gates per-shot delivery: the runner only sends to the
	// stream channel after a consumer attached via Stream.
	streaming atomic.Bool
	stream    chan ShotResult

	mu    sync.Mutex
	state JobState
	reqs  []RequestStatus
	err   error
	done  chan struct{}
}

func newJob(id string, reqs []RunRequest) *Job {
	j := &Job{
		id:     id,
		state:  JobQueued,
		reqs:   make([]RequestStatus, len(reqs)),
		stream: make(chan ShotResult),
		done:   make(chan struct{}),
	}
	for i, r := range reqs {
		j.reqs[i] = RequestStatus{Index: i, Tag: r.Tag, State: JobQueued}
	}
	return j
}

// ID identifies the job: backend-local for the Simulator, the service's
// job ID for the Client.
func (j *Job) ID() string { return j.id }

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Requests snapshots the per-request statuses in request order.
func (j *Job) Requests() []RequestStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]RequestStatus, len(j.reqs))
	copy(out, j.reqs)
	return out
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the job's failure or cancellation cause: the first
// request error, or the cancellation cause. Nil while the job is live
// and after full success.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Results returns one Result per request in request order, or
// ErrJobNotDone before the job finishes. When the job failed or was
// cancelled it returns the partial results alongside the job's error;
// requests that never started carry an empty zero-shot Result.
func (j *Job) Results() ([]*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, ErrJobNotDone
	}
	return j.resultsLocked(), j.err
}

func (j *Job) resultsLocked() []*Result {
	out := make([]*Result, len(j.reqs))
	for i := range j.reqs {
		out[i] = j.reqs[i].Result
	}
	return out
}

// Wait blocks until the job finishes or ctx expires, then returns
// Results. A ctx expiry does not cancel the job (cancel via the Submit
// ctx or Cancel).
func (j *Job) Wait(ctx context.Context) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return j.Results()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel stops the job: running requests stop at the next shot
// boundary, unstarted requests are skipped. For remote jobs the
// cancellation is also delivered to the service. Safe to call at any
// time, including after completion.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() {
		if j.cancelHook != nil {
			j.cancelHook()
		}
	})
}

// Stream returns the job's live result feed: one ShotResult per shot
// for Simulator jobs, and a per-request histogram replay for Client
// jobs (delivered as each request completes remotely). Each ShotResult
// carries its originating Request index. The channel closes when the
// job finishes; a request failure delivers one ShotResult with Err and
// Request set. Attach early: only results completing after the call are
// delivered (RunStream attaches before execution starts, so single-run
// streams are complete). The caller must drain the channel or cancel
// the job.
func (j *Job) Stream() <-chan ShotResult {
	j.streaming.Store(true)
	return j.stream
}

// emit delivers one shot to an attached stream consumer, blocking until
// the consumer takes it or ctx is cancelled; without a consumer it is a
// no-op.
func (j *Job) emit(ctx context.Context, sr ShotResult) error {
	if !j.streaming.Load() {
		return nil
	}
	select {
	case j.stream <- sr:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// emitTerminal delivers a request's failure to an attached consumer,
// waiting at most grace for a consumer that is not at the channel:
// terminalGrace when the message ends the job (nothing else is
// stalled by waiting), siblingGrace when sibling requests are still
// pending behind the driver.
func (j *Job) emitTerminal(req int, err error, grace time.Duration) {
	if !j.streaming.Load() {
		return
	}
	sendTerminal(j.stream, ShotResult{Shot: -1, Request: req, Err: err}, grace)
}

// markRunning transitions a request (and the job, on its first running
// request) to running.
func (j *Job) markRunning(i int) {
	j.mu.Lock()
	if !j.reqs[i].State.Terminal() {
		j.reqs[i].State = JobRunning
	}
	if j.state == JobQueued {
		j.state = JobRunning
	}
	j.mu.Unlock()
}

// finishRequest records one request's outcome. Cancellation causes mark
// the request cancelled, any other error marks it failed; the first
// error of either kind becomes the job error.
func (j *Job) finishRequest(i int, res *Result, err error) {
	j.mu.Lock()
	r := &j.reqs[i]
	r.Result = res
	r.Err = err
	switch {
	case err == nil:
		r.State = JobCompleted
	case isCancellation(err):
		r.State = JobCancelled
	default:
		r.State = JobFailed
	}
	if err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// stopRemaining marks every request from index i on that has not
// finished as stopped with the given cause: cancelled for a
// cancellation cause, failed for anything else (an unreachable server
// is a failure, not a user cancel).
func (j *Job) stopRemaining(i int, cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	state := JobCancelled
	if !isCancellation(cause) {
		state = JobFailed
	}
	j.mu.Lock()
	for ; i < len(j.reqs); i++ {
		if !j.reqs[i].State.Terminal() {
			j.reqs[i].State = state
			j.reqs[i].Err = cause
			// Keep the "always a non-nil (possibly zero-shot) Result"
			// contract Run relies on, even for requests that never
			// started.
			if j.reqs[i].Result == nil {
				j.reqs[i].Result = &Result{Histogram: map[string]int{}}
			}
		}
	}
	if j.err == nil {
		j.err = cause
	}
	j.mu.Unlock()
}

// finalize computes the job's terminal state from its requests, closes
// the stream and the done channel. Called exactly once, by the driving
// goroutine.
func (j *Job) finalize() {
	j.mu.Lock()
	state := JobCompleted
	for i := range j.reqs {
		switch j.reqs[i].State {
		case JobFailed:
			state = JobFailed
		case JobCancelled:
			if state != JobFailed {
				state = JobCancelled
			}
		case JobCompleted:
		default:
			// A request that never reached a terminal state (driver
			// stopped early): cancelled.
			j.reqs[i].State = JobCancelled
			if state != JobFailed {
				state = JobCancelled
			}
		}
	}
	j.state = state
	j.mu.Unlock()
	close(j.stream)
	close(j.done)
}

// isCancellation distinguishes a caller-driven stop from a failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// jobSeq numbers Simulator-local jobs.
var jobSeq atomic.Int64

func localJobID() string {
	return fmt.Sprintf("local-%06d", jobSeq.Add(1))
}

// normalizeBatch applies the Submit validation shared by every
// Backend: a non-empty batch, a program on every request, and a nil
// ctx defaulting to Background.
func normalizeBatch(ctx context.Context, reqs []RunRequest) (context.Context, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("eqasm: empty batch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i, r := range reqs {
		if r.Program == nil {
			return nil, fmt.Errorf("eqasm: request %d has no program", i)
		}
	}
	return ctx, nil
}
