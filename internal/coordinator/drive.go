package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eqasm"
	"eqasm/internal/service"
	"eqasm/internal/wal"
	"eqasm/internal/wire"
)

// Journal record shapes. An accepted record carries everything needed
// to rebuild the batch in a fresh process: each request exactly as the
// wire carries it to a worker (eQASM text, shots, seed, backend,
// fusion, params); a result record one request's terminal outcome; a
// done entry (no payload) retires the batch from recovery.
type acceptedRecord struct {
	Chip     string         `json:"chip,omitempty"`
	Requests []wire.Request `json:"requests"`
}

type resultRecord struct {
	Error     string        `json:"error,omitempty"`
	Cancelled bool          `json:"cancelled,omitempty"`
	Result    *eqasm.Result `json:"result,omitempty"`
}

// pending is one live batch: the controlled job the caller holds, the
// routing state the driver works through, and the journal entries a
// checkpoint must preserve while the batch is unfinished.
type pending struct {
	id   string
	job  *eqasm.Job
	ctl  *eqasm.JobController
	reqs []eqasm.RunRequest
	wire []wire.Request // per request as the wire carries it (journaled)
	keys []string       // content-hash routing key per request

	attempts []int
	terminal []bool // per-request: outcome recorded (driver-owned)

	ctx       context.Context
	cancel    context.CancelCauseFunc
	stopWatch func() bool

	walMu      sync.Mutex
	walEntries []wal.Entry
	done       atomic.Bool
}

// release tears down a pending that never started driving.
func (p *pending) release() {
	if p.stopWatch != nil {
		p.stopWatch()
	}
	p.cancel(context.Canceled)
}

// Describe renders the batch as its /v1/batches wire status, in the
// shape a worker gives its own jobs, so clients cannot tell the tiers
// apart.
func (p *pending) Describe() wire.BatchStatus {
	sts := p.job.Requests()
	st := wire.BatchStatus{
		ID:       p.id,
		Status:   wire.State(p.job.Status()),
		Priority: service.PriorityNormal.String(),
		Requests: make([]wire.RequestStatus, len(sts)),
	}
	for i, rs := range sts {
		ws := wire.RequestStatus{Index: rs.Index, Tag: rs.Tag, Status: wire.State(rs.State)}
		if res := rs.Result; res != nil {
			ws.Shots = res.Shots
			ws.Histogram = res.Histogram
			ws.Qubits = res.Qubits
			ws.Stats = res.Stats
			ws.TotalStats = res.TotalStats
			ws.Backend = res.Backend
			ws.RunTime = res.Duration
		}
		if rs.Err != nil {
			ws.Error = rs.Err.Error()
		}
		st.Requests[i] = ws
	}
	if err := p.job.Err(); err != nil && st.Status.Terminal() {
		st.Error = err.Error()
	}
	return st
}

// Done is closed when the batch's job finalizes.
func (p *pending) Done() <-chan struct{} { return p.job.Done() }

// Cancel cancels the batch's job.
func (p *pending) Cancel() { p.job.Cancel() }

// runRequest rebuilds the execution request a wire request describes
// around its resolved program.
func runRequest(prog *eqasm.Program, r wire.Request) eqasm.RunRequest {
	return eqasm.RunRequest{
		Program: prog,
		Options: eqasm.RunOptions{Shots: r.Shots, Seed: r.Seed, Backend: r.Backend, Fusion: r.Fusion},
		Params:  r.Params,
		Tag:     r.Tag,
	}
}

// newPending builds the controlled job and routing state for a batch.
// The batch's lifetime is bound to submitCtx exactly as Backend
// documents: expiry cancels it; Job.Cancel does too.
func (c *Coordinator) newPending(id string, submitCtx context.Context, reqs []eqasm.RunRequest) (*pending, error) {
	p := &pending{
		id:       id,
		reqs:     reqs,
		wire:     make([]wire.Request, len(reqs)),
		keys:     make([]string, len(reqs)),
		attempts: make([]int, len(reqs)),
		terminal: make([]bool, len(reqs)),
	}
	// The driver's own context outlives the submit call; the submit
	// ctx is watched, not inherited, so cancellation causes propagate.
	p.ctx, p.cancel = context.WithCancelCause(context.Background())
	job, ctl, err := eqasm.NewControlledJob(id, reqs, func() { p.cancel(context.Canceled) })
	if err != nil {
		p.cancel(context.Canceled)
		return nil, err
	}
	p.job, p.ctl = job, ctl
	for i, r := range reqs {
		src, err := r.Program.WireSource()
		if err != nil {
			p.cancel(context.Canceled)
			return nil, fmt.Errorf("coordinator: request %d: %w", i, err)
		}
		// RunRequest.Params takes precedence over Options.Params.
		params := r.Params
		if params == nil {
			params = r.Options.Params
		}
		p.wire[i] = wire.Request{Source: src, Shots: r.Options.Shots, Seed: r.Options.Seed,
			Tag: r.Tag, Backend: r.Options.Backend, Fusion: r.Options.Fusion, Params: params}
		p.keys[i] = routeKey(src)
	}
	if submitCtx != nil && submitCtx.Done() != nil {
		p.stopWatch = context.AfterFunc(submitCtx, func() {
			p.cancel(context.Cause(submitCtx))
		})
	}
	return p, nil
}

// walAppend journals an entry and remembers it for checkpoints; a
// failed append is an error (used on the admission path, where
// durability is part of the contract).
func (c *Coordinator) walAppend(p *pending, e wal.Entry) error {
	if err := c.log.Append(e); err != nil {
		c.metrics.walErrors.Add(1)
		return err
	}
	p.walMu.Lock()
	p.walEntries = append(p.walEntries, e)
	p.walMu.Unlock()
	c.metrics.walRecords.Add(1)
	return nil
}

// walRecord journals a best-effort entry mid-drive: completed work is
// never failed over a journal hiccup — the cost of a lost record is
// deterministic re-execution on recovery.
func (c *Coordinator) walRecord(p *pending, e wal.Entry) {
	p.walMu.Lock()
	p.walEntries = append(p.walEntries, e)
	p.walMu.Unlock()
	if err := c.log.Append(e); err != nil {
		c.metrics.walErrors.Add(1)
		return
	}
	c.metrics.walRecords.Add(1)
}

func (c *Coordinator) walResult(p *pending, i int, rec resultRecord) {
	data, err := json.Marshal(rec)
	if err != nil {
		c.metrics.walErrors.Add(1)
		return
	}
	c.walRecord(p, wal.Entry{Kind: wal.KindResult, Batch: p.id, Index: i, Data: data})
}

// transient classifies a worker error as placement-related — the
// request itself may be fine and is worth re-queueing elsewhere —
// versus deterministic rejection. Connection-level failures and
// overload statuses (503, 5xx) are transient; anything else (4xx
// validation, simulation faults) would fail identically on any worker.
func transient(err error) bool {
	if err == nil {
		return false
	}
	var se *eqasm.ServiceError
	if errors.As(err, &se) {
		return se.StatusCode == http.StatusServiceUnavailable || se.StatusCode >= 500
	}
	var oe *net.OpError
	var ue *url.Error
	return errors.As(err, &oe) || errors.As(err, &ue) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED)
}

// drive works a batch to completion: rounds of route → dispatch →
// classify, re-queueing requests stranded by worker failures, until
// every request is terminal or the batch is cancelled.
func (c *Coordinator) drive(p *pending, outstanding []int) {
	defer c.wg.Done()
	var starved time.Time
	for len(outstanding) > 0 && p.ctx.Err() == nil {
		groups := c.route(p, outstanding)
		if groups == nil {
			// No eligible worker. Wait for probes to find one, up to
			// WorkerWait, then fail what is left as backpressure.
			if starved.IsZero() {
				starved = time.Now()
			}
			if time.Since(starved) >= c.cfg.WorkerWait {
				err := fmt.Errorf("coordinator: no healthy workers after %v: %w",
					c.cfg.WorkerWait, service.ErrQueueFull)
				for _, i := range outstanding {
					c.fail(p, i, err)
				}
				outstanding = nil
				break
			}
			select {
			case <-p.ctx.Done():
			case <-time.After(c.starveDelay()):
			}
			continue
		}
		starved = time.Time{}
		var mu sync.Mutex
		var redo []int
		var dwg sync.WaitGroup
		for w, idxs := range groups {
			dwg.Add(1)
			go func(w *worker, idxs []int) {
				defer dwg.Done()
				if r := c.dispatch(p, w, idxs); len(r) > 0 {
					mu.Lock()
					redo = append(redo, r...)
					mu.Unlock()
				}
			}(w, idxs)
		}
		dwg.Wait()
		sort.Ints(redo)
		if len(redo) > 0 {
			c.metrics.requeues.Add(int64(len(redo)))
		}
		outstanding = redo
	}
	c.settle(p, outstanding)
}

func (c *Coordinator) starveDelay() time.Duration {
	if d := c.cfg.HealthInterval / 2; d < 50*time.Millisecond {
		return d + time.Millisecond
	}
	return 50 * time.Millisecond
}

// dispatch sends one sub-batch to one worker and classifies each
// request's outcome: completed results are journaled and finished;
// placement failures come back for re-queueing (bounded by
// MaxAttempts); deterministic failures are terminal.
func (c *Coordinator) dispatch(p *pending, w *worker, idxs []int) (redo []int) {
	sub := make([]eqasm.RunRequest, len(idxs))
	for k, i := range idxs {
		sub[k] = p.reqs[i]
		p.attempts[i]++
	}
	w.inflight.Add(int64(len(idxs)))
	defer w.inflight.Add(-int64(len(idxs)))
	c.metrics.dispatches.Add(1)
	job, err := w.client.Submit(p.ctx, sub...)
	if err != nil {
		if p.ctx.Err() != nil {
			return nil // settle() records the cancellation
		}
		if transient(err) {
			// The worker is unreachable or shedding load: route the
			// whole sub-batch elsewhere and let the next probe decide
			// when this worker returns.
			w.healthy.Store(false)
			return c.requeueOrFail(p, idxs, fmt.Errorf("worker %s: %w", w.url, err))
		}
		for _, i := range idxs {
			c.fail(p, i, fmt.Errorf("coordinator: worker %s: %w", w.url, err))
		}
		return nil
	}
	for _, i := range idxs {
		p.ctl.MarkRunning(i)
	}
	<-job.Done()
	sts := job.Requests()
	for k, i := range idxs {
		st := sts[k]
		switch {
		case st.State == eqasm.JobCompleted && st.Result != nil:
			c.walResult(p, i, resultRecord{Result: st.Result})
			_ = p.ctl.Replay(p.ctx, i, st.Result)
			p.ctl.Finish(i, st.Result, nil)
			p.terminal[i] = true
		case p.ctx.Err() != nil:
			// Our own cancellation echoed back; settle() records it.
		case st.State == eqasm.JobCancelled || transient(st.Err):
			// The worker went away mid-run (shutdown cancels its jobs;
			// a dead connection surfaces as an unreachable poll). The
			// request never half-ran anywhere that matters: a rerun
			// from its own base seed is bit-identical.
			if transient(st.Err) {
				w.healthy.Store(false)
			}
			cause := st.Err
			if cause == nil {
				cause = errors.New("sub-batch cancelled by worker")
			}
			redo = append(redo, c.requeueOrFail(p, []int{i}, fmt.Errorf("worker %s: %w", w.url, cause))...)
		default:
			cause := st.Err
			if cause == nil {
				cause = errors.New("request did not complete")
			}
			c.fail(p, i, fmt.Errorf("coordinator: worker %s: %w", w.url, cause))
		}
	}
	return redo
}

// requeueOrFail re-queues requests whose failure was placement-shaped,
// failing those that exhausted their attempts.
func (c *Coordinator) requeueOrFail(p *pending, idxs []int, cause error) (redo []int) {
	for _, i := range idxs {
		if p.attempts[i] >= c.cfg.MaxAttempts {
			c.fail(p, i, fmt.Errorf("coordinator: request failed after %d attempts: %w", p.attempts[i], cause))
			continue
		}
		redo = append(redo, i)
	}
	return redo
}

// fail records a terminal per-request failure: journal, stream, job.
func (c *Coordinator) fail(p *pending, i int, err error) {
	c.walResult(p, i, resultRecord{Error: err.Error()})
	p.ctl.EmitError(i, err, len(p.reqs) == 1)
	p.ctl.Finish(i, nil, err)
	p.terminal[i] = true
}

// settle closes out a drive: cancelled batches record their stragglers,
// the done entry retires the batch from recovery, and the job
// finalizes — unless the coordinator itself is closing, in which case
// the batch is abandoned mid-journal exactly as a crash would leave
// it, for recovery to finish in the next life.
func (c *Coordinator) settle(p *pending, outstanding []int) {
	if cause := context.Cause(p.ctx); errors.Is(cause, errClosing) {
		return
	}
	if p.ctx.Err() != nil {
		cause := context.Cause(p.ctx)
		for i := range p.reqs {
			if !p.terminal[i] {
				c.walResult(p, i, resultRecord{Cancelled: true})
				p.terminal[i] = true
			}
		}
		p.ctl.StopRemaining(cause)
	}
	c.walRecord(p, wal.Entry{Kind: wal.KindDone, Batch: p.id, Index: -1})
	p.done.Store(true)
	p.ctl.Finalize()
	switch p.job.Status() {
	case eqasm.JobCompleted:
		c.metrics.jobsCompleted.Add(1)
	case eqasm.JobCancelled:
		c.metrics.jobsCancelled.Add(1)
	default:
		c.metrics.jobsFailed.Add(1)
	}
	c.retire(p)
}

// retire moves a finished batch into the bounded lookup history and
// periodically folds the journal down to live batches.
func (c *Coordinator) retire(p *pending) {
	if p.stopWatch != nil {
		p.stopWatch()
	}
	p.cancel(context.Canceled)
	c.mu.Lock()
	c.liveJobs--
	c.retired = append(c.retired, p.id)
	for len(c.retired) > c.cfg.RetainJobs {
		delete(c.jobs, c.retired[0])
		c.retired = c.retired[1:]
	}
	c.sinceCheckpoint++
	checkpoint := c.sinceCheckpoint >= 256
	if checkpoint {
		c.sinceCheckpoint = 0
	}
	c.mu.Unlock()
	if checkpoint {
		_ = c.Checkpoint()
	}
}

// recBatch is one unfinished batch reconstructed from the journal.
type recBatch struct {
	id       string
	accepted acceptedRecord
	results  map[int]resultRecord
}

// replayWAL folds the journal into the set of batches that were
// admitted but never finished, and advances the ID sequence past
// everything the previous life issued.
func (c *Coordinator) replayWAL() ([]*recBatch, error) {
	byID := make(map[string]*recBatch)
	var order []*recBatch
	done := make(map[string]bool)
	err := c.log.Replay(func(e wal.Entry) error {
		switch e.Kind {
		case wal.KindAccepted:
			rb := &recBatch{id: e.Batch, results: make(map[int]resultRecord)}
			if json.Unmarshal(e.Data, &rb.accepted) != nil {
				return nil // CRC-valid but unparsable: skip defensively
			}
			byID[e.Batch] = rb
			order = append(order, rb)
		case wal.KindResult:
			if rb := byID[e.Batch]; rb != nil {
				var rr resultRecord
				if json.Unmarshal(e.Data, &rr) == nil {
					rb.results[e.Index] = rr
				}
			}
		case wal.KindDone:
			done[e.Batch] = true
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("coordinator: wal replay: %w", err)
	}
	live := order[:0]
	for _, rb := range order {
		if n, ok := strings.CutPrefix(rb.id, "coord-"); ok {
			if seq, err := strconv.ParseInt(n, 10, 64); err == nil && seq > c.seq.Load() {
				c.seq.Store(seq)
			}
		}
		if !done[rb.id] {
			live = append(live, rb)
		}
	}
	return live, nil
}

// recover re-admits one journaled batch: rebuild its programs from
// wire text, reapply the outcomes that reached disk, and re-dispatch
// only what is left. Seeds travel in the journal, so recovered
// requests re-execute bit-identically.
func (c *Coordinator) recover(rb *recBatch) error {
	if rb.accepted.Chip != "" && rb.accepted.Chip != c.chip {
		return fmt.Errorf("coordinator: wal batch %s targets chip %q, pool is %q", rb.id, rb.accepted.Chip, c.chip)
	}
	reqs := make([]eqasm.RunRequest, len(rb.accepted.Requests))
	for i, rr := range rb.accepted.Requests {
		prog, err := c.compile.Compile(rr.Source, rr.Format)
		if err != nil {
			return fmt.Errorf("coordinator: wal batch %s request %d: %w", rb.id, i, err)
		}
		reqs[i] = runRequest(prog, rr)
	}
	p, err := c.newPending(rb.id, nil, reqs)
	if err != nil {
		return fmt.Errorf("coordinator: wal batch %s: %w", rb.id, err)
	}
	// Re-journal the batch's surviving records through the pending so
	// checkpoints keep carrying them (the entries are already on disk;
	// only the in-memory checkpoint view needs them).
	data, _ := json.Marshal(rb.accepted)
	p.walEntries = append(p.walEntries, wal.Entry{Kind: wal.KindAccepted, Batch: rb.id, Index: -1, Data: data})
	var outstanding []int
	for i := range reqs {
		rr, ok := rb.results[i]
		if !ok {
			outstanding = append(outstanding, i)
			continue
		}
		rdata, _ := json.Marshal(rr)
		p.walEntries = append(p.walEntries, wal.Entry{Kind: wal.KindResult, Batch: rb.id, Index: i, Data: rdata})
		switch {
		case rr.Error != "":
			err := errors.New(rr.Error)
			p.ctl.EmitError(i, err, len(reqs) == 1)
			p.ctl.Finish(i, rr.Result, err)
		case rr.Cancelled:
			p.ctl.Finish(i, rr.Result, context.Canceled)
		default:
			p.ctl.Finish(i, rr.Result, nil)
		}
		p.terminal[i] = true
	}
	c.mu.Lock()
	c.jobs[rb.id] = p
	c.liveJobs++
	c.mu.Unlock()
	c.metrics.recovered.Add(1)
	c.metrics.jobsSubmitted.Add(1)
	c.metrics.requestsSubmitted.Add(int64(len(reqs)))
	c.wg.Add(1)
	go c.drive(p, outstanding)
	return nil
}
