package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"eqasm"
	"eqasm/internal/service"
	"eqasm/internal/wire"
)

// Batch.Describe is the one wire renderer of both serving tiers. Drive
// a controlled job through every lifecycle path and check each field of
// the batch and request statuses it renders.
func TestDescribe(t *testing.T) {
	prog, err := eqasm.Assemble("STOP")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []eqasm.RunRequest{{Program: prog, Tag: "a"}, {Program: prog, Tag: "b"}}
	done := &eqasm.Result{
		Shots:      8,
		Histogram:  map[string]int{"00": 5, "11": 3},
		Qubits:     []int{0, 2},
		Stats:      eqasm.ExecStats{Instructions: 9, QuantumOps: 3, DurationNs: 200_400},
		TotalStats: eqasm.ExecStats{Instructions: 72, QuantumOps: 24, DurationNs: 1_603_200},
		Backend:    eqasm.BackendStabilizer,
		Duration:   1500 * time.Microsecond,
	}
	partial := &eqasm.Result{
		Shots:      2,
		Histogram:  map[string]int{"0": 2},
		Qubits:     []int{0},
		Stats:      eqasm.ExecStats{Instructions: 4},
		TotalStats: eqasm.ExecStats{Instructions: 8},
		Backend:    eqasm.BackendStateVector,
		Duration:   40 * time.Microsecond,
	}
	doneA := wire.RequestStatus{Index: 0, Tag: "a", Status: wire.StateCompleted, Shots: 8,
		Histogram: done.Histogram, Qubits: done.Qubits, Stats: done.Stats, TotalStats: done.TotalStats,
		CacheHit: true, Backend: eqasm.BackendStabilizer, RunTime: 1500 * time.Microsecond}
	boom := errors.New("boom")

	cases := []struct {
		name  string
		drive func(*eqasm.JobController)
		prio  service.Priority
		hits  []bool
		want  wire.BatchStatus
	}{
		{
			name:  "queued",
			drive: func(*eqasm.JobController) {},
			prio:  service.PriorityLow,
			hits:  []bool{true, false},
			want: wire.BatchStatus{Status: wire.StateQueued, Priority: "low", Requests: []wire.RequestStatus{
				{Index: 0, Tag: "a", Status: wire.StateQueued, CacheHit: true},
				{Index: 1, Tag: "b", Status: wire.StateQueued},
			}},
		},
		{
			// The coordinator caches no results and passes no hits.
			name:  "running",
			drive: func(c *eqasm.JobController) { c.MarkRunning(1) },
			prio:  service.PriorityNormal,
			want: wire.BatchStatus{Status: wire.StateRunning, Priority: "normal", Requests: []wire.RequestStatus{
				{Index: 0, Tag: "a", Status: wire.StateQueued},
				{Index: 1, Tag: "b", Status: wire.StateRunning},
			}},
		},
		{
			// A finished request reports its outcome while its sibling
			// still runs; the running one reports its state only.
			name: "one request done",
			drive: func(c *eqasm.JobController) {
				c.MarkRunning(0)
				c.MarkRunning(1)
				c.Finish(0, done, nil)
			},
			prio: service.PriorityHigh,
			hits: []bool{true, true},
			want: wire.BatchStatus{Status: wire.StateRunning, Priority: "high", Requests: []wire.RequestStatus{
				doneA,
				{Index: 1, Tag: "b", Status: wire.StateRunning, CacheHit: true},
			}},
		},
		{
			name: "completed",
			drive: func(c *eqasm.JobController) {
				c.Finish(0, done, nil)
				c.Finish(1, done, nil)
				c.Finalize()
			},
			prio: service.PriorityHigh,
			hits: []bool{true, false},
			want: wire.BatchStatus{Status: wire.StateCompleted, Priority: "high", Requests: []wire.RequestStatus{
				doneA,
				{Index: 1, Tag: "b", Status: wire.StateCompleted, Shots: 8,
					Histogram: done.Histogram, Qubits: done.Qubits, Stats: done.Stats, TotalStats: done.TotalStats,
					Backend: eqasm.BackendStabilizer, RunTime: 1500 * time.Microsecond},
			}},
		},
		{
			// A failed request keeps its partial outcome; its error is
			// the batch error.
			name: "failed",
			drive: func(c *eqasm.JobController) {
				c.Finish(0, done, nil)
				c.Finish(1, partial, boom)
				c.Finalize()
			},
			prio: service.PriorityNormal,
			hits: []bool{true, false},
			want: wire.BatchStatus{Status: wire.StateFailed, Priority: "normal", Error: "boom", Requests: []wire.RequestStatus{
				doneA,
				{Index: 1, Tag: "b", Status: wire.StateFailed, Shots: 2,
					Histogram: partial.Histogram, Qubits: partial.Qubits, Stats: partial.Stats,
					TotalStats: partial.TotalStats, Backend: eqasm.BackendStateVector,
					RunTime: 40 * time.Microsecond, Error: "boom"},
			}},
		},
		{
			// Cancelled mid-run: the running request keeps its partial
			// outcome, the queued one never ran.
			name: "cancelled",
			drive: func(c *eqasm.JobController) {
				c.MarkRunning(0)
				c.Finish(0, partial, context.Canceled)
				c.StopRemaining(context.Canceled)
				c.Finalize()
			},
			prio: service.PriorityLow,
			hits: []bool{false, true},
			want: wire.BatchStatus{Status: wire.StateCancelled, Priority: "low", Error: "context canceled", Requests: []wire.RequestStatus{
				{Index: 0, Tag: "a", Status: wire.StateCancelled, Shots: 2,
					Histogram: partial.Histogram, Qubits: partial.Qubits, Stats: partial.Stats,
					TotalStats: partial.TotalStats, Backend: eqasm.BackendStateVector,
					RunTime: 40 * time.Microsecond, Error: "context canceled"},
				{Index: 1, Tag: "b", Status: wire.StateCancelled, Histogram: map[string]int{},
					CacheHit: true, Error: "context canceled"},
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job, ctl, err := eqasm.NewControlledJob("job-000042", reqs, nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.drive(ctl)
			tc.want.ID = "job-000042"
			if got := (&service.Batch{Job: job, Priority: tc.prio, CacheHits: tc.hits}).Describe(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Describe =\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}
}

// The JSON of a finished batch is the /v1/batches contract: pin it
// byte for byte, wire names included.
func TestDescribeJSON(t *testing.T) {
	prog, err := eqasm.Assemble("STOP")
	if err != nil {
		t.Fatal(err)
	}
	job, ctl, err := eqasm.NewControlledJob("job-000007",
		[]eqasm.RunRequest{{Program: prog, Tag: "bell"}, {Program: prog}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Finish(0, &eqasm.Result{
		Shots:      4,
		Histogram:  map[string]int{"00": 1, "11": 3},
		Qubits:     []int{0, 2},
		Stats:      eqasm.ExecStats{Instructions: 9, Bundles: 2, QuantumOps: 3, DurationNs: 200_400},
		TotalStats: eqasm.ExecStats{Instructions: 36, Bundles: 8, QuantumOps: 12, DurationNs: 801_600},
		Backend:    eqasm.BackendStabilizer,
		Duration:   1234,
	}, nil)
	ctl.Finish(1, &eqasm.Result{Histogram: map[string]int{}}, errors.New("boom"))
	ctl.Finalize()
	got, err := json.Marshal((&service.Batch{Job: job, Priority: service.PriorityHigh, CacheHits: []bool{true, false}}).Describe())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":"job-000007","status":"failed","priority":"high","requests":[` +
		`{"index":0,"tag":"bell","status":"completed","shots":4,"histogram":{"00":1,"11":3},"qubits":[0,2],` +
		`"stats":{"instructions":9,"bundles":2,"quantum_ops":3,"cancelled_ops":0,"fmr_stall_ticks":0,"duration_ns":200400},` +
		`"total_stats":{"instructions":36,"bundles":8,"quantum_ops":12,"cancelled_ops":0,"fmr_stall_ticks":0,"duration_ns":801600},` +
		`"cache_hit":true,"backend":"stabilizer","run_ns":1234},` +
		`{"index":1,"status":"failed","shots":0,` +
		`"stats":{"instructions":0,"bundles":0,"quantum_ops":0,"cancelled_ops":0,"fmr_stall_ticks":0,"duration_ns":0},` +
		`"total_stats":{"instructions":0,"bundles":0,"quantum_ops":0,"cancelled_ops":0,"fmr_stall_ticks":0,"duration_ns":0},` +
		`"cache_hit":false,"run_ns":0,"error":"boom"}],"error":"boom"}`
	if string(got) != want {
		t.Fatalf("JSON =\n%s\nwant\n%s", got, want)
	}
}
