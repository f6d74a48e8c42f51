// Job-layer tests: the async Submit/Job lifecycle on the Simulator,
// batch-vs-individual parity on both backends (the core contract: a
// batch of N requests is bit-identical per request to N individual Run
// calls at the same seeds), streaming, independent request failure and
// aggregate stats. All of them must stay clean under `go test -race`.
package eqasm_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eqasm"
	"eqasm/internal/service"
)

// batchRequests builds one RunRequest per shipped program, each with
// its own seed and shot count so per-request option handling is
// exercised.
func batchRequests(t *testing.T) []eqasm.RunRequest {
	t.Helper()
	progs := shippedPrograms(t)
	names := []string{"bell.eqasm", "active_reset.eqasm", "cfc.eqasm", "loop.eqasm"}
	reqs := make([]eqasm.RunRequest, 0, len(names))
	for i, name := range names {
		src, ok := progs[name]
		if !ok {
			t.Fatalf("shipped program %s missing", name)
		}
		prog, err := eqasm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, eqasm.RunRequest{
			Program: prog,
			Options: eqasm.RunOptions{Shots: 20 + 5*i, Seed: int64(11 + i)},
			Tag:     name,
		})
	}
	return reqs
}

// A Simulator batch is bit-identical per request to individual Run
// calls at the same seeds.
func TestSimulatorBatchParity(t *testing.T) {
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	reqs := batchRequests(t)
	job, err := sim.Submit(context.Background(), reqs...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if job.Status() != eqasm.JobCompleted {
		t.Fatalf("status = %q", job.Status())
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, req := range reqs {
		want, err := sim.Run(context.Background(), req.Program, req.Options)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i]
		if got == nil {
			t.Fatalf("request %d: nil result", i)
		}
		if got.Shots != want.Shots {
			t.Fatalf("request %d: %d shots, want %d", i, got.Shots, want.Shots)
		}
		if fmt.Sprint(got.Histogram) != fmt.Sprint(want.Histogram) {
			t.Fatalf("request %d (%s): batch histogram %v, individual %v",
				i, req.Tag, got.Histogram, want.Histogram)
		}
		if fmt.Sprint(got.Qubits) != fmt.Sprint(want.Qubits) {
			t.Fatalf("request %d: qubits %v, want %v", i, got.Qubits, want.Qubits)
		}
		if got.TotalStats != want.TotalStats {
			t.Fatalf("request %d: total stats %+v, want %+v", i, got.TotalStats, want.TotalStats)
		}
	}
	// Per-request statuses carry tags and terminal states.
	for i, rs := range job.Requests() {
		if rs.Index != i || rs.Tag != reqs[i].Tag || rs.State != eqasm.JobCompleted {
			t.Fatalf("request status %d = %+v", i, rs)
		}
		if rs.Result != results[i] {
			t.Fatalf("request status %d result diverges from Results()", i)
		}
	}
}

// The same parity holds over HTTP: a 4-request /v1/batches job returns
// per-request histograms bit-identical to 4 individual Run calls (the
// service derives every request's batch seeds from its own base seed,
// independent of batch position).
func TestClientBatchParity(t *testing.T) {
	client := newServiceClient(t, service.Config{
		Workers:    4,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	reqs := batchRequests(t)
	job, err := client.Submit(context.Background(), reqs...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want, err := client.Run(context.Background(), req.Program, req.Options)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i]
		if got == nil || got.Shots != want.Shots {
			t.Fatalf("request %d: got %+v, want %d shots", i, got, want.Shots)
		}
		if fmt.Sprint(got.Histogram) != fmt.Sprint(want.Histogram) {
			t.Fatalf("request %d (%s): batch histogram %v, individual %v",
				i, req.Tag, got.Histogram, want.Histogram)
		}
		if got.TotalStats != want.TotalStats {
			t.Fatalf("request %d: total stats %+v, want %+v", i, got.TotalStats, want.TotalStats)
		}
	}
	// One batch job plus four individual jobs were submitted; the batch
	// counters reflect it.
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsSubmitted != 5 || st.RequestsSubmitted != 8 || st.BatchJobs != 1 {
		t.Fatalf("stats = %+v, want 5 jobs / 8 requests / 1 batch", st)
	}
}

// TotalStats sums per-shot counters. The shipped programs take no
// data-dependent branches, so every shot retires the same instruction
// count and the total is an exact multiple — on the Simulator and
// through the HTTP wire format.
func TestResultTotalStats(t *testing.T) {
	progSrc := shippedPrograms(t)["bell.eqasm"]
	prog, err := eqasm.Assemble(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 7
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	client := newServiceClient(t, service.Config{
		Workers: 2,
		Machine: []eqasm.Option{eqasm.WithSeed(3)},
	})
	for _, backend := range []eqasm.Backend{sim, client} {
		res, err := backend.Run(context.Background(), prog, eqasm.RunOptions{Shots: shots})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Instructions == 0 {
			t.Fatalf("%T: empty per-shot stats", backend)
		}
		if res.TotalStats.Instructions != int64(shots)*res.Stats.Instructions {
			t.Fatalf("%T: total %d instructions, want %d x %d",
				backend, res.TotalStats.Instructions, shots, res.Stats.Instructions)
		}
		if res.TotalStats.DurationNs != int64(shots)*res.Stats.DurationNs {
			t.Fatalf("%T: total %d ns, want %d x %d",
				backend, res.TotalStats.DurationNs, shots, res.Stats.DurationNs)
		}
	}
}

// A batch stream delivers every shot with its request index when the
// consumer attaches before execution proceeds (gated here through a
// blocking mock measurement).
func TestSimulatorBatchStream(t *testing.T) {
	gate := make(chan struct{})
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(1),
		eqasm.WithMockMeasure(func(qubit, index int) int {
			<-gate // hold every shot until the stream consumer attached
			return 1
		}))
	if err != nil {
		t.Fatal(err)
	}
	src := shippedPrograms(t)["active_reset.eqasm"]
	prog, err := eqasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	shots := []int{3, 2}
	job, err := sim.Submit(context.Background(),
		eqasm.RunRequest{Program: prog, Options: eqasm.RunOptions{Shots: shots[0]}},
		eqasm.RunRequest{Program: prog, Options: eqasm.RunOptions{Shots: shots[1]}},
	)
	if err != nil {
		t.Fatal(err)
	}
	stream := job.Stream()
	close(gate)
	got := map[int]int{}
	for sr := range stream {
		if sr.Err != nil {
			t.Fatal(sr.Err)
		}
		if sr.Shot != got[sr.Request] {
			t.Fatalf("request %d: shot %d arrived at position %d", sr.Request, sr.Shot, got[sr.Request])
		}
		got[sr.Request]++
	}
	for r, want := range shots {
		if got[r] != want {
			t.Fatalf("request %d streamed %d shots, want %d", r, got[r], want)
		}
	}
	if _, err := job.Results(); err != nil {
		t.Fatal(err)
	}
}

// One failing request does not poison its siblings: the batch finishes
// with per-request verdicts and the job reports the failure.
func TestBatchRequestFailureIsIsolated(t *testing.T) {
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := eqasm.Assemble("LDI R1, -8\nLD R2, R1(0)\nSTOP")
	if err != nil {
		t.Fatal(err)
	}
	good, err := eqasm.Assemble(shippedPrograms(t)["bell.eqasm"])
	if err != nil {
		t.Fatal(err)
	}
	job, err := sim.Submit(context.Background(),
		eqasm.RunRequest{Program: bad, Options: eqasm.RunOptions{Shots: 2}, Tag: "bad"},
		eqasm.RunRequest{Program: good, Options: eqasm.RunOptions{Shots: 10}, Tag: "good"},
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := job.Wait(context.Background())
	if err == nil {
		t.Fatal("batch with a faulting request completed clean")
	}
	var rerr *eqasm.RuntimeError
	if !errors.As(err, &rerr) {
		t.Fatalf("job error is %T, want *RuntimeError", err)
	}
	if job.Status() != eqasm.JobFailed {
		t.Fatalf("status = %q, want failed", job.Status())
	}
	reqs := job.Requests()
	if reqs[0].State != eqasm.JobFailed || reqs[0].Err == nil {
		t.Fatalf("bad request state = %+v", reqs[0])
	}
	if reqs[1].State != eqasm.JobCompleted || reqs[1].Err != nil {
		t.Fatalf("good request state = %+v", reqs[1])
	}
	if results[1] == nil || results[1].Shots != 10 {
		t.Fatalf("good request result = %+v", results[1])
	}
}

// Concurrent Submit/Cancel/Wait across goroutines stays consistent
// (run with -race): every job lands in a terminal state, cancelled
// jobs report cancellation, completed jobs carry full results.
func TestJobLifecycleConcurrency(t *testing.T) {
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqasm.Assemble(shippedPrograms(t)["bell.eqasm"])
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cancelIt := g%2 == 1
			shots := 50
			if cancelIt {
				shots = 1_000_000 // plenty of runway for the cancel to land mid-run
			}
			job, err := sim.Submit(context.Background(),
				eqasm.RunRequest{Program: prog, Options: eqasm.RunOptions{Shots: shots}},
				eqasm.RunRequest{Program: prog, Options: eqasm.RunOptions{Shots: shots, Seed: int64(g + 1)}},
			)
			if err != nil {
				errc <- err
				return
			}
			if cancelIt {
				job.Cancel()
				job.Cancel() // idempotent
			}
			results, err := job.Wait(context.Background())
			st := job.Status()
			if !st.Terminal() {
				errc <- fmt.Errorf("goroutine %d: non-terminal state %q after Wait", g, st)
				return
			}
			if cancelIt {
				if !errors.Is(err, context.Canceled) {
					errc <- fmt.Errorf("goroutine %d: cancelled job err = %v", g, err)
				}
				return
			}
			if err != nil {
				errc <- fmt.Errorf("goroutine %d: %v", g, err)
				return
			}
			for i, res := range results {
				if res == nil || res.Shots != shots {
					errc <- fmt.Errorf("goroutine %d request %d: result %+v", g, i, res)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// The submit ctx governs the whole batch: expiry mid-run cancels it
// with partial per-request results.
func TestSubmitContextCancelsBatch(t *testing.T) {
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqasm.Assemble(shippedPrograms(t)["bell.eqasm"])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	job, err := sim.Submit(ctx,
		eqasm.RunRequest{Program: prog, Options: eqasm.RunOptions{Shots: 10_000_000}},
		eqasm.RunRequest{Program: prog, Options: eqasm.RunOptions{Shots: 10}},
	)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer waitCancel()
	results, err := job.Wait(waitCtx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if job.Status() != eqasm.JobCancelled {
		t.Fatalf("status = %q", job.Status())
	}
	if results[0] == nil || results[0].Shots == 0 || results[0].Shots >= 10_000_000 {
		t.Fatalf("request 0 partial result = %+v, want some but not all shots", results[0])
	}
	if st := job.Requests()[1].State; st != eqasm.JobCancelled {
		t.Fatalf("request 1 state = %q, want cancelled (never started)", st)
	}
}

// A ctx that is already dead at submit time still yields the contract
// shapes: RunStream delivers a terminal Err (not a silent clean close)
// and Run returns a non-nil zero-shot Result, with a non-nil
// histogram, alongside the ctx's cancellation cause.
func TestPreCancelledContext(t *testing.T) {
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eqasm.Assemble(shippedPrograms(t)["bell.eqasm"])
	if err != nil {
		t.Fatal(err)
	}
	errX := errors.New("caller gave up")
	for _, tc := range []struct {
		name  string
		ctx   func() context.Context
		cause error
	}{
		{"cancel", func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx
		}, context.Canceled},
		{"cancel-cause", func() context.Context {
			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(errX)
			return ctx
		}, errX},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream, err := sim.RunStream(tc.ctx(), prog, eqasm.RunOptions{Shots: 100})
			if err != nil {
				t.Fatal(err)
			}
			var terminal error
			for sr := range stream {
				if sr.Err != nil {
					terminal = sr.Err
				}
			}
			if !errors.Is(terminal, tc.cause) {
				t.Fatalf("terminal = %v, want %v", terminal, tc.cause)
			}
			res, err := sim.Run(tc.ctx(), prog, eqasm.RunOptions{Shots: 100})
			if !errors.Is(err, tc.cause) {
				t.Fatalf("Run err = %v, want %v", err, tc.cause)
			}
			if res == nil || res.Shots != 0 || res.Histogram == nil {
				t.Fatalf("Run result = %+v, want non-nil zero-shot partial with a histogram", res)
			}
		})
	}
}
