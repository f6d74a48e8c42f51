package microarch

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"eqasm/internal/isa"
	"eqasm/internal/plan"
)

// SeedStride separates the random streams of sibling executions: worker
// w (or service batch w) runs at base seed + w*SeedStride.
const SeedStride = 1_000_003

// Pool recycles Machines built from one Config template. A checkout
// reseeds the machine's random stream, so a pooled run is bit-identical
// to one on a freshly built Machine at the same seed; backends that
// cannot reseed are simply rebuilt. Idle machines wait on a free list
// that never holds more machines than were once checked out together.
// They live as long as the pool: a dropped pool's machines are freed by
// the next garbage collection, where a sync.Pool's would survive two
// (a state vector is 2^n amplitudes, so that matters). The pool is safe
// for concurrent use and is the machine-recycling primitive behind
// every shot fan-out in the stack (the public eqasm Backend and,
// through it, the job service).
type Pool struct {
	cfg Config

	mu   sync.Mutex
	idle []*Machine
}

// NewPool builds a pool; cfg.Seed is overridden per checkout. cfg's
// defaults resolve once here, and every pooled machine shares cfg's
// Topo and OpConfig objects — the context Plan lowers under, and
// therefore the one FanPlan requires plans to be built under.
func NewPool(cfg Config) *Pool {
	return &Pool{cfg: cfg.withDefaults()}
}

// Plan lowers prog into an execution plan under the pool's
// instruction-set context.
func (p *Pool) Plan(prog *isa.Program) (*plan.Executable, error) {
	return plan.Build(prog, p.cfg.Topo, p.cfg.OpConfig)
}

// Get checks a machine out of the pool, reseeded to seed; when the pool
// is empty (or the backend cannot reseed) it builds a fresh one.
func (p *Pool) Get(seed int64) (*Machine, error) {
	var m *Machine
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		m = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if m != nil && m.Reseed(seed) {
		return m, nil
	}
	cfg := p.cfg
	cfg.Seed = seed
	return New(cfg)
}

// Put returns a machine for reuse.
func (p *Pool) Put(m *Machine) {
	p.mu.Lock()
	p.idle = append(p.idle, m)
	p.mu.Unlock()
}

// FanPlan is the one shot-execution code path of the stack: it runs a
// pre-lowered execution plan for shots repetitions distributed over
// worker goroutines, each on its own pooled machine (machines are not
// concurrency safe) sharing the plan read-only. b, when non-nil, binds
// a parametric ex (b.Plan() must be ex): every worker's machine shares
// the immutable Executable and the binding's patch table, so a sweep
// point costs a binding, not a recompile. Worker w executes the
// contiguous shot range starting at w*ceil(shots/workers) with random
// stream baseSeed + w*SeedStride, so results are reproducible for a
// fixed worker count — and workers == 1 is bit-identical to a
// sequential Reset+Run loop on one machine built at baseSeed.
//
// observe is called serially for every shot in flight: runErr is that
// shot's execution failure (nil on success, with m holding the
// post-shot machine state; m is nil when the worker's machine could not
// be built or loaded). observe's return value is recorded as the shot's
// final error — wrap or replace runErr as needed, or return non-nil on
// a successful shot to abort the fan-out. The first recorded error
// stops all workers at their next shot boundary and is returned.
//
// A panic in a worker (its machine, backend or observe) is recorded the
// same way, as an error carrying the panic value and stack; the
// panicking machine is dropped rather than returned to the pool.
//
// ctx is checked between shots; cancellation stops the fan-out and
// returns context.Cause(ctx) without observing the remaining shots.
//
// A pool whose template sets Config.Backend shares that one backend
// with every machine it builds, so it runs on one worker: asking for
// more is an error rather than a data race on the shared chip.
func (p *Pool) FanPlan(ctx context.Context, ex *plan.Executable, b *plan.Binding, baseSeed int64,
	shots, workers int, observe func(shot int, m *Machine, runErr error) error) error {
	if shots <= 0 {
		return nil
	}
	if workers > 1 && p.cfg.Backend != nil {
		return fmt.Errorf("microarch: %d fan-out workers would share the pool's one Config.Backend; use 1", workers)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > shots {
		workers = shots
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// settle runs observe under the lock (shots may arrive out of
	// order; the worker's machine state is stable while the callback
	// reads it) and reports whether the fan-out is stopping.
	settle := func(shot int, m *Machine, runErr error) bool {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = observe(shot, m, runErr)
		}
		return firstErr != nil
	}
	perWorker := (shots + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var m *Machine
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("microarch: fan-out worker %d panicked: %v\n%s", w, r, debug.Stack()))
					return
				}
				if m != nil {
					p.Put(m)
				}
			}()
			m, buildErr := p.Get(baseSeed + int64(w)*SeedStride)
			if buildErr == nil {
				buildErr = m.loadPlan(ex, b)
			}
			for i := 0; i < perWorker; i++ {
				shot := w*perWorker + i
				if shot >= shots {
					return
				}
				if ctx.Err() != nil {
					fail(context.Cause(ctx))
					return
				}
				var ran *Machine // nil when the machine could not be built or loaded
				runErr := buildErr
				if runErr == nil {
					ran = m
					m.Reset()
					runErr = m.Run()
				}
				if settle(shot, ran, runErr) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
