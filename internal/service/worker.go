package service

import (
	"context"
	"errors"
	"time"

	"eqasm"
)

// workerLoop pulls batches until the queue closes. Each batch runs
// through the shared eqasm.Simulator with Workers == 1, so it executes
// sequentially on one pooled machine (machines are not concurrency
// safe; pool parallelism comes from running many batches at once) with
// a batch-index-derived seed keeping results independent of which
// worker ran it.
func (s *Service) workerLoop() {
	for {
		b, ok := s.queue.pop()
		if !ok {
			return
		}
		s.metrics.workersBusy.Add(1)
		s.runBatch(b)
		s.metrics.workersBusy.Add(-1)
	}
}

func (s *Service) runBatch(b *batch) {
	job := b.job
	// Skip the batch when the whole job was cancelled, or when its own
	// request already failed: both cancel the request's run context
	// (sibling requests of the batch keep running).
	if job.reqs[b.req].runCtx.Err() != nil {
		job.finishBatch(b, nil, nil)
		return
	}
	job.startBatch(b)
	start := time.Now()
	s.metrics.inflightShots.Add(int64(b.shots))
	res, err := s.executeBatch(b)
	s.metrics.inflightShots.Add(-int64(b.shots))
	s.metrics.batchesRun.Add(1)
	if res != nil {
		s.metrics.shotsExecuted.Add(int64(res.Shots))
		if res.Backend == eqasm.BackendStabilizer {
			s.metrics.stabilizerShots.Add(int64(res.Shots))
		}
		if len(res.GateProfile) > 0 && res.Shots > 0 {
			s.profMu.Lock()
			if s.gateProfile == nil {
				s.gateProfile = make(map[string]int64, len(res.GateProfile))
			}
			for k, v := range res.GateProfile {
				s.gateProfile[k] += int64(v) * int64(res.Shots)
			}
			s.profMu.Unlock()
		}
	}
	s.metrics.runNs.Add(time.Since(start).Nanoseconds())
	job.finishBatch(b, res, err)
}

// executeBatch runs one shot batch of one request on the shared
// backend, returning the local result (histogram plus per-shot and
// summed counters). Seeds derive from the request's own base seed and
// the batch index within the request, so a request's random streams
// are independent of which worker runs it and of its position in the
// batch. The request's run context stops the backend at the next shot
// boundary on cancellation; cancellation is not an error here (the
// request settles with the job's cancellation cause).
func (s *Service) executeBatch(b *batch) (*eqasm.Result, error) {
	r := b.job.reqs[b.req]
	base := s.sim.Seed()
	if r.spec.Seed != 0 {
		base = r.spec.Seed
	}
	res, err := s.sim.Run(r.runCtx, r.program, eqasm.RunOptions{
		Shots:   b.shots,
		Seed:    base + int64(b.index)*eqasm.SeedStride,
		Workers: 1,
		Backend: r.spec.Backend,
		Fusion:  r.spec.Fusion,
		Params:  r.spec.Params,
	})
	// Cancellation is not an error (the request settles with the job's
	// cause), and
	// neither is a stop triggered by the request's own earlier failure
	// (the cancellation cause is that failure; the request already
	// recorded it).
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		(err != nil && err == context.Cause(r.runCtx)) {
		err = nil
	}
	return res, err
}

// SmokePrograms returns tiny eQASM payloads exercising the main paths of
// the stack — handy for health checks and load tests against a serving
// instance (they are the same shapes as the shipped testdata programs).
func SmokePrograms() map[string]string {
	return map[string]string{
		"bell": `
SMIS S0, {0}
SMIS S2, {0, 2}
SMIT T0, {(0, 2)}
QWAIT 10000
H S0
CNOT T0
2, MEASZ S2
QWAIT 50
STOP
`,
		"active_reset": `
SMIS S2, {2}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
QWAIT 50
STOP
`,
		"flip": `
SMIS S0, {0}
QWAIT 10000
X S0
MEASZ S0
QWAIT 50
STOP
`,
	}
}
