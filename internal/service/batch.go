package service

import (
	"context"
	"sync"

	"eqasm"
	"eqasm/internal/wire"
)

// Batch is one admitted batch of either serving tier: the public job
// handle its caller holds, the batch priority, the per-request cache
// hits (the service's; the coordinator caches no results and leaves
// them nil) and the run context the batch's work runs under. It is the
// batch's wire.Batch handle for the HTTP front end.
type Batch struct {
	Job       *eqasm.Job
	Priority  Priority
	CacheHits []bool

	ctx       context.Context
	cancel    context.CancelCauseFunc
	stopWatch func() bool
	finished  bool // outcome recorded (guarded by the Batches lock)
}

// NewBatch builds the controlled job of reqs under id and its run
// context. The run context outlives the submit call: submitCtx is
// watched, not inherited, and its expiry cancels the batch with its
// cause; Job.Cancel cancels it with context.Canceled.
func NewBatch(submitCtx context.Context, id string, reqs []eqasm.RunRequest, prio Priority) (*Batch, *eqasm.JobController, error) {
	b := &Batch{Priority: prio}
	b.ctx, b.cancel = context.WithCancelCause(context.Background())
	job, ctl, err := eqasm.NewControlledJob(id, reqs, func() { b.cancel(context.Canceled) })
	if err != nil {
		b.cancel(context.Canceled)
		return nil, nil, err
	}
	b.Job = job
	if submitCtx != nil && submitCtx.Done() != nil {
		b.stopWatch = context.AfterFunc(submitCtx, func() { b.cancel(context.Cause(submitCtx)) })
	}
	return b, ctl, nil
}

// Context is the batch's run context, cancelled with the cause of a
// cancellation (Job.Cancel, the submit ctx or Stop) and once the batch
// is released.
func (b *Batch) Context() context.Context { return b.ctx }

// Stop cancels the batch's run context with cause.
func (b *Batch) Stop(cause error) { b.cancel(cause) }

// Release stops watching the submit ctx and releases the run context:
// for a batch that was never admitted, or one that finished
// (Batches.Finish releases it).
func (b *Batch) Release() {
	if b.stopWatch != nil {
		b.stopWatch()
	}
	b.cancel(nil)
}

// Describe renders the batch as its /v1/batches wire status, for both
// serving tiers (wire.Batch). A queued or running request reports its
// state only; a finished one its outcome (partial when it failed or was
// cancelled mid-run). The batch error is the job's first failure or its
// cancellation cause, once terminal.
func (b *Batch) Describe() wire.BatchStatus {
	job := b.Job
	// Status first: once it reads terminal, every request already is.
	st := wire.BatchStatus{ID: job.ID(), Status: job.Status(), Priority: b.Priority.String()}
	for i, rs := range job.Requests() {
		ws := wire.RequestStatus{Index: rs.Index, Tag: rs.Tag, Status: rs.State}
		if i < len(b.CacheHits) {
			ws.CacheHit = b.CacheHits[i]
		}
		if res := rs.Result; res != nil && rs.State.Terminal() {
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
		st.Requests = append(st.Requests, ws)
	}
	if err := job.Err(); err != nil && st.Status.Terminal() {
		st.Error = err.Error()
	}
	return st
}

// Done is closed when the batch's job finalizes (wire.Batch).
func (b *Batch) Done() <-chan struct{} { return b.Job.Done() }

// Cancel cancels the batch's job (wire.Batch).
func (b *Batch) Cancel() { b.Job.Cancel() }

// retainBatches bounds how many finished batches stay queryable by ID.
const retainBatches = 1024

// BatchCounts are a batch table's counters, as both tiers' /v1/stats
// report them.
type BatchCounts struct {
	JobsSubmitted     int64 `json:"jobs_submitted"`
	JobsActive        int64 `json:"jobs_active"`
	JobsCompleted     int64 `json:"jobs_completed"`
	JobsFailed        int64 `json:"jobs_failed"`
	JobsCancelled     int64 `json:"jobs_cancelled"`
	RequestsSubmitted int64 `json:"requests_submitted"`
}

// Batches is a serving tier's batch table: it admits batches until it
// is closed, indexes them by ID (every unfinished batch and the newest
// retainBatches finished ones) and counts them from admission to
// outcome. The zero value is an open, empty table; it is safe for
// concurrent use.
type Batches struct {
	mu      sync.Mutex
	closed  bool
	byID    map[string]*Batch
	retired []string // finished batch IDs, oldest first
	counts  BatchCounts
}

// Admit registers b with its request count unless the table is closed
// (ErrClosed) or enqueue fails (its error). enqueue hands the batch's
// work to the tier and runs under the table's lock, so Close either
// refuses a batch or returns it, and no batch finishes before it is
// registered; it must not call back into the table.
func (t *Batches) Admit(b *Batch, requests int, enqueue func() error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if err := enqueue(); err != nil {
		return err
	}
	if t.byID == nil {
		t.byID = map[string]*Batch{}
	}
	t.byID[b.Job.ID()] = b
	t.counts.JobsSubmitted++
	t.counts.JobsActive++
	t.counts.RequestsSubmitted += int64(requests)
	return nil
}

// Finish counts b's outcome, releases its run context and retires it,
// evicting the oldest finished batches beyond retainBatches. Call it
// once every request is terminal and before JobController.Finalize,
// so a caller woken by Done reads counters that include its batch.
func (t *Batches) Finish(b *Batch) {
	b.Release()
	state := outcome(b.Job)
	t.mu.Lock()
	defer t.mu.Unlock()
	b.finished = true
	t.counts.JobsActive--
	switch state {
	case eqasm.JobCompleted:
		t.counts.JobsCompleted++
	case eqasm.JobCancelled:
		t.counts.JobsCancelled++
	default:
		t.counts.JobsFailed++
	}
	t.retired = append(t.retired, b.Job.ID())
	for len(t.retired) > retainBatches {
		delete(t.byID, t.retired[0])
		t.retired = t.retired[1:]
	}
}

// outcome is the state Finalize computes from a job's requests: failed
// over cancelled over completed, a request that never settled counting
// as cancelled.
func outcome(job *eqasm.Job) eqasm.JobState {
	state := eqasm.JobCompleted
	for _, rs := range job.Requests() {
		switch rs.State {
		case eqasm.JobFailed:
			return eqasm.JobFailed
		case eqasm.JobCompleted:
		default:
			state = eqasm.JobCancelled
		}
	}
	return state
}

// Close stops admissions and returns the unfinished batches.
func (t *Batches) Close() []*Batch {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	var live []*Batch
	for _, b := range t.byID {
		if !b.finished {
			live = append(live, b)
		}
	}
	return live
}

// Closed reports whether Close was called.
func (t *Batches) Closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Job returns a batch's job by ID, including recently finished ones.
func (t *Batches) Job(id string) (*eqasm.Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.byID[id]; ok {
		return b.Job, true
	}
	return nil, false
}

// Batch returns a batch by ID, including recently finished ones.
func (t *Batches) Batch(id string) (wire.Batch, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.byID[id]; ok {
		return b, true
	}
	return nil, false
}

// Counts snapshots the counters.
func (t *Batches) Counts() BatchCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}
