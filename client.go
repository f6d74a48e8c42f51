package eqasm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"time"

	"eqasm/internal/wire"
)

// Client is the job-service Backend: it submits batches of programs to
// a running eqasm-serve instance over its HTTP API (POST /v1/batches
// and friends) and maps the per-request results back onto the same
// Result and Job types the in-process Simulator produces. Safe for
// concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	poll    time.Duration
	retries int
	backoff time.Duration
}

var _ Backend = (*Client)(nil)

// defaultPollInterval paces the job poll loop when WithPollInterval is
// not given.
const defaultPollInterval = 25 * time.Millisecond

// maxPollFailures bounds consecutive poll errors before a job is
// declared failed (a dead or unreachable server must not hang Wait
// forever).
const maxPollFailures = 10

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the http.Client used for requests
// (timeouts, transports, instrumentation).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithPollInterval sets the pacing of the remote-job poll loop behind
// Job.Wait and the streams (default 25ms). Shorten it for fast tests,
// stretch it for slow servers or long-running sweeps; values <= 0 keep
// the default.
func WithPollInterval(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.poll = d
		}
	}
}

// defaultRetryBackoff is the first retry delay when WithRetry is given
// without one.
const defaultRetryBackoff = 50 * time.Millisecond

// WithRetry makes every request retry transient connection failures —
// errors raised before the request reached the server, such as a
// refused or unreachable connection — up to retries additional
// attempts, with exponential backoff starting at base (default 50ms;
// values <= 0 keep the defaults) and ±50% jitter so a fleet of clients
// does not reconnect in lockstep. Only never-sent requests are retried,
// so a submit cannot be duplicated; a server that accepted the request
// and then failed surfaces its error unretried. This is what lets a
// routing tier ride out a worker restart, and what lets a CLI outlive
// a briefly unreachable service.
func WithRetry(retries int, base time.Duration) ClientOption {
	return func(c *Client) {
		if retries > 0 {
			c.retries = retries
		}
		if base > 0 {
			c.backoff = base
		}
	}
}

// NewClient builds a client for the service at baseURL (e.g.
// "http://localhost:8080").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		poll:    defaultPollInterval,
		backoff: defaultRetryBackoff,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// resultFromWire maps a finished request's wire status onto a Result.
func resultFromWire(st *wire.RequestStatus) *Result {
	hist := st.Histogram
	if hist == nil {
		hist = map[string]int{}
	}
	return &Result{
		Shots:      st.Shots,
		Histogram:  hist,
		Qubits:     st.Qubits,
		Stats:      st.Stats,
		TotalStats: st.TotalStats,
		Backend:    st.Backend,
		Duration:   st.RunTime,
	}
}

// ServiceError is a non-2xx HTTP response from the service, carrying
// the status code alongside the service's error message so callers can
// distinguish backpressure (503: queue full, draining) from rejection
// (400) without parsing strings.
type ServiceError struct {
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// Message is the service's error message, if it sent one.
	Message string
}

func (e *ServiceError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("eqasm: service: %s (HTTP %d)", e.Message, e.StatusCode)
	}
	return fmt.Sprintf("eqasm: service: HTTP %d", e.StatusCode)
}

// retryableError reports whether err happened before the request
// reached the server — the only failures safe to retry blind, since
// nothing was submitted. In practice that is a failed dial (refused,
// unreachable, no route); an error on an established connection could
// mean the server acted on the request before dying.
func retryableError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, data, out)
		if err == nil || attempt >= c.retries || !retryableError(err) {
			return err
		}
		// Exponential backoff with ±50% jitter; bail out early when the
		// caller's ctx expires mid-wait.
		d := c.backoff << attempt
		d = d/2 + rand.N(d)
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// doOnce performs a single attempt; the body bytes are marshaled once
// by do and a fresh reader is built per attempt, so retries never send
// a drained body.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		se := &ServiceError{StatusCode: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil {
			se.Message = e.Error
		}
		return se
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit implements Backend: it posts the whole batch as one
// /v1/batches job — one queue admission, one program-cache pass and one
// HTTP round-trip for N programs — and returns a Job handle driven by a
// poll loop (pace it with WithPollInterval). Each request honors its
// own shots and seed exactly as an individual Run would;
// RunOptions.Workers is ignored (the service owns its fan-out). The
// job is bound to ctx: a ctx that expires while the batch is queued or
// running cancels it remotely.
func (c *Client) Submit(ctx context.Context, reqs ...RunRequest) (*Job, error) {
	return c.submitJob(ctx, false, false, reqs)
}

// submitJob posts the batch and starts the handle's driver. With wait
// set the POST itself blocks until the batch finishes and its response
// settles the job without a single status poll.
func (c *Client) submitJob(ctx context.Context, streaming, wait bool, reqs []RunRequest) (*Job, error) {
	ctx, err := normalizeBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	batch := wire.BatchRequest{Requests: make([]wire.Request, len(reqs)), Wait: wait}
	for i, r := range reqs {
		if r.Options.Shots < 0 {
			return nil, fmt.Errorf("eqasm: negative shot count %d", r.Options.Shots)
		}
		src, err := r.Program.WireSource()
		if err != nil {
			return nil, err
		}
		// The program's bound chip travels with each request, so a
		// program assembled for one topology cannot silently execute
		// under another chip's semantics on a mismatched service.
		batch.Requests[i] = wire.Request{
			Source:  src,
			Shots:   r.Options.Shots,
			Seed:    r.Options.Seed,
			Tag:     r.Tag,
			Chip:    r.Program.Chip(),
			Backend: r.Options.Backend,
			Fusion:  r.Options.Fusion,
			Params:  r.params(),
		}
	}
	var br wire.BatchStatus
	if err = c.do(ctx, http.MethodPost, "/v1/batches", batch, &br); err != nil {
		return nil, err
	}
	job := newJob(br.ID, reqs)
	if streaming {
		job.streaming.Store(true)
	}
	pctx, cancel := context.WithCancelCause(ctx)
	// Cancel delivers the cancellation to the service; the poll loop
	// (and its ctx) stays live so the confirming poll can observe the
	// terminal state the server settles on.
	job.cancelHook = func() { go c.cancelBatch(br.ID) }
	go c.pollJob(pctx, cancel, job, br.ID, br)
	return job, nil
}

// cancelBatch best-effort-cancels a remote batch.
func (c *Client) cancelBatch(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = c.do(ctx, http.MethodDelete, "/v1/batches/"+id, nil, nil)
}

// pollJob drives a remote job to completion: it polls the batch
// endpoint, mirrors per-request states onto the handle, replays each
// request's histogram to an attached stream as the request completes,
// and finalizes when the server reports a terminal state (or after
// maxPollFailures consecutive errors, or when ctx is cancelled — which
// also cancels the batch remotely). The submit response seeds the loop:
// a synchronous (wait) submit settles the whole job from it, with no
// polls at all.
func (c *Client) pollJob(ctx context.Context, cancel context.CancelCauseFunc, job *Job, id string,
	submitted wire.BatchStatus) {
	defer cancel(nil)
	seen := make([]bool, len(job.reqs))
	if c.applyPoll(ctx, job, submitted, seen) {
		job.finalize()
		return
	}
	fails := 0
	t := time.NewTimer(c.poll) // the submit response just told us the state; wait one beat
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-ctx.Done():
			cause := context.Cause(ctx)
			job.Cancel() // delivers the cancellation remotely (once)
			job.emitTerminal(c.firstUnseen(seen), cause, terminalGrace)
			job.stopRemaining(0, cause)
			job.finalize()
			return
		}
		var br wire.BatchStatus
		err := c.do(ctx, http.MethodGet, "/v1/batches/"+id, nil, &br)
		if err != nil {
			if ctx.Err() != nil {
				continue // the ctx branch above handles it on the next spin
			}
			if fails++; fails >= maxPollFailures {
				err = fmt.Errorf("eqasm: service job %s unreachable: %w", id, err)
				job.emitTerminal(c.firstUnseen(seen), err, terminalGrace)
				job.stopRemaining(0, err)
				job.finalize()
				return
			}
			t.Reset(c.poll)
			continue
		}
		fails = 0
		terminal := c.applyPoll(ctx, job, br, seen)
		if terminal {
			job.finalize()
			return
		}
		t.Reset(c.poll)
	}
}

// firstUnseen picks the request index a batch-level terminal message is
// attributed to.
func (c *Client) firstUnseen(seen []bool) int {
	for i, s := range seen {
		if !s {
			return i
		}
	}
	return 0
}

// applyPoll mirrors one poll's batch description onto the job handle
// and reports whether the batch reached a terminal state with every
// request accounted for.
func (c *Client) applyPoll(ctx context.Context, job *Job, br wire.BatchStatus, seen []bool) bool {
	done := true
	for i := range br.Requests {
		rw := &br.Requests[i]
		if rw.Index < 0 || rw.Index >= len(seen) || seen[rw.Index] {
			continue
		}
		switch rw.Status {
		case JobRunning:
			job.markRunning(rw.Index)
			done = false
		case JobCompleted, JobFailed, JobCancelled:
			seen[rw.Index] = true
			res := resultFromWire(rw)
			var reqErr error
			switch {
			case rw.Status == JobCancelled:
				reqErr = context.Canceled
			case rw.Status == JobFailed:
				msg := rw.Error
				if msg == "" {
					msg = "request failed"
				}
				reqErr = fmt.Errorf("eqasm: service job %s request %d: %s", job.id, rw.Index, msg)
			}
			if reqErr == nil {
				if err := replayHistogram(ctx, job, rw.Index, res); err != nil {
					// ctx cancelled mid-replay: the remote data is
					// complete, but the caller abandoned the job — end
					// it as cancelled with a terminal stream message.
					job.finishRequest(rw.Index, res, err)
					job.Cancel() // the remote batch must not keep running
					job.emitTerminal(rw.Index, err, terminalGrace)
					job.stopRemaining(0, err)
					return true
				}
			} else {
				job.emitTerminal(rw.Index, reqErr, siblingGrace)
			}
			job.finishRequest(rw.Index, res, reqErr)
		default: // queued
			done = false
		}
	}
	if !done {
		return false
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// Run implements Backend by awaiting a one-request job submitted
// synchronously (the wire's wait flag), so a run is a single HTTP
// round-trip with no poll latency. The job is bound to ctx, so waiting
// for it to finish keeps the partial Result beside a cancellation
// error. RunOptions.Workers is ignored (the service owns its own
// fan-out).
func (c *Client) Run(ctx context.Context, p *Program, opts RunOptions) (*Result, error) {
	job, err := c.submitJob(ctx, false, true, []RunRequest{{Program: p, Options: opts}})
	if err != nil {
		return nil, err
	}
	results, err := job.Wait(context.Background())
	return results[0], err
}

// RunStream implements Backend as sugar over Submit with the stream
// attached up front. The service aggregates shots into a histogram
// rather than streaming them, so the channel stays silent while the
// job runs remotely and then replays the finished histogram: one
// ShotResult per executed shot, grouped by outcome in key order. Like
// the Simulator's stream, the call returns immediately (the submit
// round-trip happens behind the stream); a failure delivers one final
// ShotResult with Err set.
func (c *Client) RunStream(ctx context.Context, p *Program, opts RunOptions) (<-chan ShotResult, error) {
	if opts.Shots < 0 {
		return nil, fmt.Errorf("eqasm: negative shot count %d", opts.Shots)
	}
	if p == nil {
		return nil, fmt.Errorf("eqasm: request 0 has no program")
	}
	ch := make(chan ShotResult)
	go func() {
		defer close(ch)
		// Synchronous submit here too: the terminal response feeds the
		// replay directly, with no poll round-trips behind the stream.
		job, err := c.submitJob(ctx, true, true, []RunRequest{{Program: p, Options: opts}})
		if err != nil {
			sendTerminal(ch, ShotResult{Shot: -1, Err: err}, terminalGrace)
			return
		}
		for sr := range job.Stream() {
			select {
			case ch <- sr:
			case <-ctx.Done():
				// Consumer-side cancellation: stop the remote job and
				// hand over the terminal message; the poll loop drains
				// the job channel on its own ctx.
				job.Cancel()
				sendTerminal(ch, ShotResult{Shot: -1, Err: context.Cause(ctx)}, terminalGrace)
				return
			}
		}
	}()
	return ch, nil
}

// ServiceStats is a point-in-time snapshot of the service counters:
// the /v1/stats payload of an eqasm-serve worker.
type ServiceStats struct {
	Workers     int `json:"workers"`
	WorkersBusy int `json:"workers_busy"`
	QueueDepth  int `json:"queue_depth"`
	// QueueCapacity is the queue's slot bound — with QueueDepth, the
	// load signal a routing tier uses to spill work elsewhere before
	// submits start bouncing off the full queue.
	QueueCapacity int `json:"queue_capacity"`
	// InflightShots counts shots currently executing on the workers.
	InflightShots int64 `json:"inflight_shots"`
	// Draining reports the service has stopped accepting new work and
	// is finishing what it admitted (rolling-restart drain).
	Draining      bool  `json:"draining,omitempty"`
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsActive    int64 `json:"jobs_active"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	JobsRejected  int64 `json:"jobs_rejected"`
	// RequestsSubmitted counts program requests across all jobs (a
	// batch of N adds N); BatchJobs counts jobs submitted with more
	// than one request.
	RequestsSubmitted int64 `json:"requests_submitted"`
	BatchJobs         int64 `json:"batch_jobs"`
	ShotsExecuted     int64 `json:"shots_executed"`
	// StabilizerShots counts the subset of ShotsExecuted that ran on the
	// stabilizer-tableau backend (selected explicitly or by
	// auto-detection of noiseless Clifford-only plans).
	StabilizerShots int64 `json:"stabilizer_shots"`
	BatchesRun      int64 `json:"batches_run"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheEntries    int   `json:"cache_entries"`
	// PlanCacheHits/Misses count decode-once execution-plan reuse: a
	// job whose program already carried its plan versus one that had
	// to lower it at submit time — the warmth signal content-hash
	// affinity routing is designed to maximize on each worker.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	// RunNs is the cumulative wall time workers spent executing batches.
	RunNs int64 `json:"run_ns"`
	// GateProfile aggregates executed kernel work across all batches:
	// per-shot kernel applications per kind — including fused.* kernel
	// kinds and fusion.* site counters on fused runs — weighted by
	// shots.
	GateProfile map[string]int64 `json:"gate_profile,omitempty"`
	// UptimeSeconds is the time since the service started.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (ServiceStats, error) {
	var st ServiceStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}
