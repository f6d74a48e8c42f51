// Table-driven and concurrency tests for the execution service; all of
// them must stay clean under `go test -race`.
package service_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eqasm"
	"eqasm/internal/service"
	"eqasm/internal/wire"
)

func newService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func waitResults(t *testing.T, job *eqasm.Job) []*eqasm.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s: %v", job.ID(), err)
	}
	return res
}

// describe renders a job's wire status through the service's own batch
// handle, the way GET /v1/batches/{id} does.
func describe(t *testing.T, svc *service.Service, job *eqasm.Job) wire.BatchStatus {
	t.Helper()
	b, ok := svc.Batch(job.ID())
	if !ok {
		t.Fatalf("job %s not found", job.ID())
	}
	return b.Describe()
}

// runCacheHit runs a single-request job to completion and reports its
// wire cache_hit.
func runCacheHit(t *testing.T, svc *service.Service, spec service.JobSpec) bool {
	t.Helper()
	job := mustSubmit(t, svc, spec)
	waitResults(t, job)
	return describe(t, svc, job).Requests[0].CacheHit
}

// A Bell job fans out over workers and aggregates a two-outcome
// histogram with perfect correlation.
func TestSubmitBell(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    4,
		BatchShots: 16,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	const shots = 300
	job, err := svc.Submit(context.Background(), service.JobSpec{
		Source: service.SmokePrograms()["bell"],
		Shots:  shots,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResults(t, job)[0]
	if job.Status() != eqasm.JobCompleted {
		t.Fatalf("state = %s", job.Status())
	}
	if res.Shots != shots {
		t.Fatalf("shots = %d, want %d", res.Shots, shots)
	}
	total := 0
	for key, n := range res.Histogram {
		if key != "00" && key != "11" {
			t.Fatalf("uncorrelated Bell outcome %q (%d shots)", key, n)
		}
		total += n
	}
	if total != shots {
		t.Fatalf("histogram sums to %d, want %d", total, shots)
	}
	if res.Histogram["00"] == 0 || res.Histogram["11"] == 0 {
		t.Fatalf("degenerate Bell histogram: %v", res.Histogram)
	}
	if len(res.Qubits) != 2 || res.Qubits[0] != 0 || res.Qubits[1] != 2 {
		t.Fatalf("qubits = %v, want [0 2]", res.Qubits)
	}
}

// The cache assembles identical content once and accounts hits/misses.
func TestCacheHitMissAccounting(t *testing.T) {
	svc := newService(t, service.Config{Workers: 2, Machine: []eqasm.Option{eqasm.WithSeed(1)}})
	progs := service.SmokePrograms()

	if runCacheHit(t, svc, service.JobSpec{Source: progs["flip"], Shots: 3}) {
		t.Fatal("first submit reported a cache hit")
	}
	if !runCacheHit(t, svc, service.JobSpec{Source: progs["flip"], Shots: 3}) {
		t.Fatal("second submit of identical source missed the cache")
	}
	if _, err := svc.Run(context.Background(), service.JobSpec{Source: progs["bell"], Shots: 3}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 || st.CacheEntries != 2 {
		t.Fatalf("cache stats = %d hits / %d misses / %d entries, want 1/2/2",
			st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
	// Execution plans ride on the cached programs: the two distinct
	// programs lowered once each; the cache-resident resubmit reused
	// flip's plan.
	if st.PlanCacheHits != 1 || st.PlanCacheMisses != 2 {
		t.Fatalf("plan cache stats = %d hits / %d misses, want 1/2",
			st.PlanCacheHits, st.PlanCacheMisses)
	}
}

// Many goroutines submitting concurrently all complete, and the shot
// accounting balances (run with -race).
func TestConcurrentSubmits(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    4,
		QueueDepth: 4096,
		BatchShots: 4,
		Machine:    []eqasm.Option{eqasm.WithSeed(11)},
	})
	progs := service.SmokePrograms()
	sources := []string{progs["flip"], progs["bell"], progs["active_reset"]}
	const (
		goroutines = 8
		perG       = 5
		shots      = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := svc.Run(context.Background(), service.JobSpec{
					Source: sources[(g+i)%len(sources)],
					Shots:  shots,
				})
				if err == nil && res.Shots != shots {
					err = fmt.Errorf("got %d shots, want %d", res.Shots, shots)
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.Stats()
	if st.JobsCompleted != goroutines*perG {
		t.Fatalf("completed %d jobs, want %d", st.JobsCompleted, goroutines*perG)
	}
	if st.ShotsExecuted != goroutines*perG*shots {
		t.Fatalf("executed %d shots, want %d", st.ShotsExecuted, goroutines*perG*shots)
	}
}

// Cancelling the Submit context mid-run stops the job at a shot
// boundary and reports the partial shot count.
func TestCancellationMidJob(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    1,
		QueueDepth: 20000,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(3)},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const shots = 100000 // far more than can run before the cancel lands
	job, err := svc.Submit(ctx, service.JobSpec{
		Source: service.SmokePrograms()["bell"],
		Shots:  shots,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let it start, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for job.Status() == eqasm.JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-job.Done()
	if job.Status() != eqasm.JobCancelled {
		t.Fatalf("state = %s, want cancelled", job.Status())
	}
	if _, err := job.Results(); !errors.Is(err, context.Canceled) {
		t.Fatalf("result error = %v, want context.Canceled", err)
	}
	results, _ := job.Results()
	if res := results[0]; res == nil || res.Shots >= shots {
		t.Fatalf("expected a partial run, got %+v", res)
	}
	if svc.Stats().JobsCancelled != 1 {
		t.Fatalf("stats: %+v", svc.Stats())
	}
}

// Service.Run whose ctx expires mid-job returns the partial result
// beside the deadline error, not a nil result.
func TestServiceRunPartialOnDeadline(t *testing.T) {
	svc := newService(t, service.Config{Workers: 2, Machine: []eqasm.Option{eqasm.WithSeed(5)}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	const shots = 5_000_000 // far more than can run before the deadline
	res, err := svc.Run(ctx, service.JobSpec{Source: service.SmokePrograms()["bell"], Shots: shots})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || res.Shots <= 0 || res.Shots >= shots {
		t.Fatalf("result = %+v, want a partial run", res)
	}
	sum := 0
	for k, n := range res.Histogram {
		if k != "00" && k != "11" {
			t.Fatalf("non-Bell outcome %q in partial histogram %v", k, res.Histogram)
		}
		sum += n
	}
	if sum != res.Shots {
		t.Fatalf("histogram counts %d shots, result says %d", sum, res.Shots)
	}
}

// When queued work fills the bounded queue, further submits are
// rejected with ErrQueueFull, and the service recovers once it drains.
func TestQueueSaturation(t *testing.T) {
	// The first measurement the service runs blocks until released, so
	// the first job holds the only worker until the rejection is
	// checked.
	running, release := make(chan struct{}), make(chan struct{})
	var hold, freed sync.Once
	free := func() { freed.Do(func() { close(release) }) }
	defer free() // a failed check must not leave the worker held
	svc := newService(t, service.Config{
		Workers:    1,
		QueueDepth: 4,
		BatchShots: 100000, // one batch per job
		Machine: []eqasm.Option{eqasm.WithSeed(5), eqasm.WithMockMeasure(func(int, int) int {
			hold.Do(func() {
				close(running)
				<-release
			})
			return 1
		})},
	})
	progs := service.SmokePrograms()
	// One job on the worker, four filling the queue.
	jobs := make([]*eqasm.Job, 0, 5)
	for i := 0; i < 5; i++ {
		job, err := svc.Submit(context.Background(), service.JobSpec{
			Source: progs["flip"], Shots: 1000,
		})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		jobs = append(jobs, job)
		if i == 0 {
			// The worker has the first job off the queue, so the next
			// four occupy all four slots.
			select {
			case <-running:
			case <-time.After(10 * time.Second):
				t.Fatal("first job never reached the worker")
			}
		}
	}
	_, err := svc.Submit(context.Background(), service.JobSpec{
		Source: progs["flip"], Shots: 1,
	})
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := svc.Stats(); st.JobsRejected != 1 || st.JobsSubmitted != 5 {
		t.Fatalf("stats after rejection: %+v", st)
	}
	// The service recovers: the backlog drains and new jobs run.
	free()
	for _, job := range jobs {
		waitResults(t, job)
	}
	res, err := svc.Run(context.Background(), service.JobSpec{
		Source: progs["flip"], Shots: 4,
	})
	if err != nil || res.Shots != 4 {
		t.Fatalf("post-saturation job: %v, %+v", err, res)
	}
}

// Any shot count is admissible on an idle service: batch sizes scale so
// a job never needs more queue slots than exist.
func TestHugeJobFitsSmallQueue(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		QueueDepth: 16,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(7)},
	})
	res, err := svc.Run(context.Background(), service.JobSpec{
		Source: service.SmokePrograms()["flip"],
		Shots:  2000, // would be 250 eight-shot batches without scaling
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 2000 {
		t.Fatalf("ran %d shots", res.Shots)
	}
}

// With a single busy worker, a high-priority job overtakes an earlier
// low-priority one.
func TestPriorityOrdering(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    1,
		QueueDepth: 4096,
		BatchShots: 8192, // one batch per job: the worker pops whole jobs
		Machine:    []eqasm.Option{eqasm.WithSeed(6)},
	})
	progs := service.SmokePrograms()
	// Occupy the only worker with one long batch so both queued jobs
	// are enqueued before the next pop.
	blocker, err := svc.Submit(context.Background(), service.JobSpec{
		Source: progs["flip"], Shots: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	low, err := svc.Submit(context.Background(), service.JobSpec{
		Source: progs["flip"], Shots: 50, Priority: service.PriorityLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	high, err := svc.Submit(context.Background(), service.JobSpec{
		Source: progs["flip"], Shots: 50, Priority: service.PriorityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitResults(t, low)
	// The single worker must have run the whole high-priority job
	// before starting the earlier-submitted low-priority one, so high
	// is done by the time low is.
	select {
	case <-high.Done():
	default:
		t.Fatal("low-priority job finished while the high-priority one was unfinished")
	}
	waitResults(t, high)
	waitResults(t, blocker)
}

// Circuit text compiles through the scheduler/emitter path and shares
// the cache like source jobs.
func TestCircuitJob(t *testing.T) {
	svc := newService(t, service.Config{Workers: 2, Machine: []eqasm.Option{eqasm.WithSeed(8)}})
	// The two-qubit chip names its qubits 0 and 2.
	const bell = "version 1.0\nqubits 3\nh q[0]\ncnot q[0], q[2]\nmeasure q[0]\nmeasure q[2]\n"
	spec := service.JobSpec{Source: bell, Format: service.FormatCQASM, Shots: 120}
	res, err := svc.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for key, n := range res.Histogram {
		if key != "00" && key != "11" {
			t.Fatalf("uncorrelated outcome %q", key)
		}
		total += n
	}
	if total != 120 {
		t.Fatalf("histogram sums to %d", total)
	}
	spec.Shots = 10
	if !runCacheHit(t, svc, spec) {
		t.Fatal("identical circuit missed the cache")
	}
}

// A program that faults at runtime fails the job without poisoning the
// service.
func TestRuntimeFailure(t *testing.T) {
	svc := newService(t, service.Config{Workers: 2, Machine: []eqasm.Option{eqasm.WithSeed(9)}})
	// LD from a negative address is a microarchitectural fault.
	_, err := svc.Run(context.Background(), service.JobSpec{
		Source: "LDI R1, -8\nLD R2, R1(0)\nSTOP",
		Shots:  4,
	})
	if err == nil {
		t.Fatal("expected a runtime failure")
	}
	if st := svc.Stats(); st.JobsFailed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Healthy jobs still run afterwards.
	if _, err := svc.Run(context.Background(), service.JobSpec{
		Source: service.SmokePrograms()["flip"], Shots: 2,
	}); err != nil {
		t.Fatal(err)
	}
}

// Invalid specs are rejected before they reach the queue.
func TestSubmitValidation(t *testing.T) {
	svc := newService(t, service.Config{Workers: 1})
	cases := []service.JobSpec{
		{},                               // no source
		{Source: "STOP", Format: "quil"}, // unknown format
		{Source: "STOP", Shots: -1},      // negative shots
		{Source: "STOP", Shots: service.MaxJobShots + 1}, // over the per-job cap
		{Source: "THISISNOTANOP S0\n"},                   // assembly error
	}
	for i, spec := range cases {
		if _, err := svc.Submit(context.Background(), spec); err == nil {
			t.Errorf("case %d: spec %+v accepted", i, spec)
		}
	}
	if st := svc.Stats(); st.JobsRejected != int64(len(cases)) {
		t.Fatalf("rejected = %d, want %d", st.JobsRejected, len(cases))
	}
}

// Shutdown drains queued work, then refuses new submits.
func TestShutdownDrains(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		QueueDepth: 4096,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(10)},
	})
	var jobs []*eqasm.Job
	for i := 0; i < 6; i++ {
		job, err := svc.Submit(context.Background(), service.JobSpec{
			Source: service.SmokePrograms()["bell"],
			Shots:  40,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		if job.Status() != eqasm.JobCompleted {
			t.Fatalf("job %s = %s after drain", job.ID(), job.Status())
		}
	}
	if _, err := svc.Submit(context.Background(), service.JobSpec{Source: "STOP"}); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
}

// Finished jobs stay queryable up to the retention bound: the newest
// 1024 finished batches.
func TestJobRetention(t *testing.T) {
	const retain = 1024
	svc := newService(t, service.Config{Workers: 1})
	var ids []string
	for i := 0; i < retain+1; i++ {
		job, err := svc.Submit(context.Background(), service.JobSpec{Source: "STOP"})
		if err != nil {
			t.Fatal(err)
		}
		waitResults(t, job)
		ids = append(ids, job.ID())
	}
	if _, ok := svc.Job(ids[0]); ok {
		t.Fatalf("job %s not evicted at retention %d", ids[0], retain)
	}
	if _, ok := svc.Batch(ids[0]); ok {
		t.Fatalf("batch %s not evicted at retention %d", ids[0], retain)
	}
	for _, id := range []string{ids[1], ids[retain/2], ids[retain]} {
		if _, ok := svc.Job(id); !ok {
			t.Fatalf("job %s evicted too early", id)
		}
	}
	if st := svc.Stats(); st.JobsSubmitted != retain+1 || st.JobsCompleted != retain+1 || st.JobsActive != 0 {
		t.Fatalf("stats after %d one-shot jobs: %+v", retain+1, st)
	}
}

// Per-job seeds steer the random streams: the same seeded job is
// reproducible, different seeds differ.
func TestJobSeeding(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		BatchShots: 16,
		Machine:    []eqasm.Option{eqasm.WithSeed(1)},
	})
	run := func(seed int64) map[string]int {
		res, err := svc.Run(context.Background(), service.JobSpec{
			Source: service.SmokePrograms()["bell"],
			Shots:  64,
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Histogram
	}
	a, b, c := run(42), run(42), run(43)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds agreed exactly: %v", a)
	}
}

// A batch of N requests is one queued unit with per-request
// histograms, each bit-identical to the same request submitted alone
// (the per-request split and seed derivation are position-independent).
func TestSubmitBatchPerRequestParity(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    4,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	progs := service.SmokePrograms()
	spec := service.BatchSpec{Requests: []service.RequestSpec{
		{Source: progs["bell"], Shots: 40, Seed: 7, Tag: "bell"},
		{Source: progs["flip"], Shots: 25, Seed: 9, Tag: "flip"},
		{Source: progs["active_reset"], Shots: 30, Tag: "reset"},
	}}
	job, err := svc.SubmitBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(job.Requests()); n != 3 {
		t.Fatalf("NumRequests = %d", n)
	}
	waitResults(t, job)
	res := describe(t, svc, job)
	if len(res.Requests) != 3 {
		t.Fatalf("requests = %d", len(res.Requests))
	}
	wantShots := 0
	for i, rs := range spec.Requests {
		solo, err := svc.Run(context.Background(), service.JobSpec{
			Source: rs.Source, Shots: rs.Shots, Seed: rs.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rr := res.Requests[i]
		if rr.Index != i || rr.Tag != rs.Tag || rr.Status != wire.StateCompleted {
			t.Fatalf("request %d header = %+v", i, rr)
		}
		if rr.Shots != rs.Shots {
			t.Fatalf("request %d ran %d shots, want %d", i, rr.Shots, rs.Shots)
		}
		if fmt.Sprint(rr.Histogram) != fmt.Sprint(solo.Histogram) {
			t.Fatalf("request %d: batch %v, solo %v", i, rr.Histogram, solo.Histogram)
		}
		if rr.TotalStats != solo.TotalStats {
			t.Fatalf("request %d: total stats %+v, solo %+v", i, rr.TotalStats, solo.TotalStats)
		}
		wantShots += rs.Shots
	}
	gotShots := 0
	for _, rr := range res.Requests {
		gotShots += rr.Shots
	}
	if gotShots != wantShots {
		t.Fatalf("aggregate shots = %d, want %d", gotShots, wantShots)
	}
	st := svc.Stats()
	if st.BatchJobs != 1 || st.RequestsSubmitted != 6 {
		t.Fatalf("batch stats = %+v", st)
	}
}

// A faulting request fails alone; its batch siblings still complete.
func TestBatchRequestFailureIsolated(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		BatchShots: 4,
		Machine:    []eqasm.Option{eqasm.WithSeed(2)},
	})
	job, err := svc.SubmitBatch(context.Background(), service.BatchSpec{
		Requests: []service.RequestSpec{
			{Source: "LDI R1, -8\nLD R2, R1(0)\nSTOP", Shots: 8, Tag: "bad"},
			{Source: service.SmokePrograms()["flip"], Shots: 12, Tag: "good"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); err == nil {
		t.Fatal("batch with a faulting request completed clean")
	}
	if job.Status() != eqasm.JobFailed {
		t.Fatalf("job state = %s", job.Status())
	}
	res := describe(t, svc, job)
	if res.Requests[0].Status != wire.StateFailed || res.Requests[0].Error == "" {
		t.Fatalf("bad request = %+v", res.Requests[0])
	}
	good := res.Requests[1]
	if good.Status != wire.StateCompleted || good.Shots != 12 || good.Histogram["1"] != 12 {
		t.Fatalf("good request = %+v", good)
	}
}

// Batch validation rejects malformed requests with a positioned error.
func TestBatchValidation(t *testing.T) {
	svc := newService(t, service.Config{Workers: 1})
	cases := []service.BatchSpec{
		{}, // empty
		{Requests: []service.RequestSpec{{Source: "STOP"}, {}}},                                 // request 1 empty
		{Requests: []service.RequestSpec{{Source: "STOP", Shots: -1}}},                          // negative shots
		{Requests: []service.RequestSpec{{Source: "STOP"}, {Source: "STOP", Seed: -4}}},         // negative seed
		{Requests: []service.RequestSpec{{Source: "STOP", Format: "qasm3"}}},                    // unknown format
		{Requests: []service.RequestSpec{{Source: "STOP"}, {Source: "FROBNICATE S0"}}},          // request 1 unassemblable
		{Requests: []service.RequestSpec{{Source: "STOP", Chip: "surface7"}, {Source: "STOP"}}}, // chip mismatch
	}
	for i, spec := range cases {
		if _, err := svc.SubmitBatch(context.Background(), spec); err == nil {
			t.Fatalf("case %d accepted: %+v", i, spec)
		}
	}
	if st := svc.Stats(); st.JobsRejected != int64(len(cases)) {
		t.Fatalf("rejected = %d, want %d", st.JobsRejected, len(cases))
	}
}

// A batch whose position-independent split needs more queue slots than
// the queue can ever hold is rejected up front with an explicit
// ErrQueueFull (not retried into a permanent silent failure).
func TestBatchExceedingQueueCapacityRejected(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    1,
		QueueDepth: 4,
		BatchShots: 1,
	})
	reqs := make([]service.RequestSpec, 6) // 6 one-shot requests > 4 slots
	for i := range reqs {
		reqs[i] = service.RequestSpec{Source: service.SmokePrograms()["flip"]}
	}
	_, err := svc.SubmitBatch(context.Background(), service.BatchSpec{Requests: reqs})
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if !strings.Contains(err.Error(), "queue holds 4") {
		t.Fatalf("error lacks capacity guidance: %v", err)
	}
	// A batch that fits still runs.
	if _, err := svc.SubmitBatch(context.Background(),
		service.BatchSpec{Requests: reqs[:4]}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a request failure must not disarm job-level
// cancellation — Cancel after one request failed still stops the
// surviving siblings at a shot boundary.
func TestCancelAfterRequestFailure(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		QueueDepth: 10000,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(6)},
	})
	job, err := svc.SubmitBatch(context.Background(), service.BatchSpec{
		Requests: []service.RequestSpec{
			{Source: "LDI R1, -8\nLD R2, R1(0)\nSTOP", Shots: 1, Tag: "bad"},
			{Source: service.SmokePrograms()["bell"], Shots: 50_000_000, Tag: "long"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the failure to land, then cancel the rest of the batch.
	deadline := time.Now().Add(10 * time.Second)
	for job.Requests()[0].State != eqasm.JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("bad request stuck in %q", job.Requests()[0].State)
		}
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, _ := job.Wait(ctx); res == nil {
		t.Fatal("cancelled batch never finished")
	}
	long := describe(t, svc, job).Requests[1]
	if long.Status != wire.StateCancelled {
		t.Fatalf("long request = %q, want cancelled", long.Status)
	}
	if long.Shots >= 50_000_000 {
		t.Fatal("long request ran to completion despite Cancel")
	}
}

// The backend field plumbs through to execution (per-request result
// names the simulator that ran), the stabilizer-shot counter tracks
// tableau-path work, and the service-wide gate profile aggregates
// kernel sites weighted by shots. An unknown backend name is rejected
// at validation.
func TestBackendSelectionAndStats(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		BatchShots: 16,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	const shots = 64
	bell := service.SmokePrograms()["bell"]

	// Forced state vector first: no stabilizer shots yet.
	res := waitResults(t, mustSubmit(t, svc, service.JobSpec{
		Source: bell, Shots: shots, Backend: eqasm.BackendStateVector,
	}))
	if got := res[0].Backend; got != eqasm.BackendStateVector {
		t.Fatalf("request backend = %q, want %q", got, eqasm.BackendStateVector)
	}
	if st := svc.Stats(); st.StabilizerShots != 0 {
		t.Fatalf("stabilizer shots = %d before any tableau run", st.StabilizerShots)
	}

	// Auto-selection routes the noiseless Clifford-only Bell program to
	// the tableau and the counter follows.
	res = waitResults(t, mustSubmit(t, svc, service.JobSpec{Source: bell, Shots: shots}))
	if got := res[0].Backend; got != eqasm.BackendStabilizer {
		t.Fatalf("auto request backend = %q, want %q", got, eqasm.BackendStabilizer)
	}
	st := svc.Stats()
	if st.StabilizerShots != shots {
		t.Fatalf("stabilizer shots = %d, want %d", st.StabilizerShots, shots)
	}
	if st.ShotsExecuted != 2*shots {
		t.Fatalf("shots executed = %d, want %d", st.ShotsExecuted, 2*shots)
	}
	// The profile aggregates the kernels each job actually executed,
	// weighted by shots. The state-vector job ran fused: the H folds
	// into the CNOT, so its 2 gate applications per shot surface as one
	// fused 4×4 kernel plus one elided site, and its measurement reads
	// both qubits of S2 (2 applications). The stabilizer job executes
	// per-site kernels and reports the static site counts (1 H site,
	// 1 CNOT site, 1 measure site).
	want := map[string]int{
		"fused.gate2.generic": shots,     // SV: fused H·CNOT kernel
		"fusion.elided":       shots,     // SV: the folded H application
		"fusion.sites.total":  2 * shots, // SV: all gate applications
		"fusion.sites.fused":  2 * shots, // SV: ... all participated
		"gate1.hadamard":      shots,     // stabilizer: static H site
		"gate2.perm":          shots,     // stabilizer: static CNOT site
		"measure":             3 * shots, // SV 2 applications + stabilizer 1 site
	}
	for kind, n := range want {
		if got := st.GateProfile[kind]; got != int64(n) {
			t.Fatalf("gate profile %q = %d, want %d (profile: %v)", kind, got, n, st.GateProfile)
		}
	}

	if _, err := svc.Submit(context.Background(), service.JobSpec{
		Source: bell, Shots: 1, Backend: "tensor-network",
	}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend error = %v", err)
	}
}

func mustSubmit(t *testing.T, svc *service.Service, spec service.JobSpec) *eqasm.Job {
	t.Helper()
	job, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return job
}
