package core

import (
	"context"
	"sync"

	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/plan"
)

// SystemPool recycles Systems built from one Options template. A
// checkout reseeds the machine's random stream, so a pooled run is
// bit-identical to one on a freshly constructed System at the same seed;
// backends that cannot reseed are simply rebuilt. The pool is safe for
// concurrent use and is the machine-recycling primitive behind every
// shot fan-out in the stack (the public eqasm Backend and, through it,
// the job service).
type SystemPool struct {
	opts Options
	pool sync.Pool
}

// NewSystemPool builds a pool; opts.Seed is overridden per checkout.
// Context defaults resolve once here, so every pooled System — and
// every execution plan lowered through the pool — shares one topology
// and operation configuration.
func NewSystemPool(opts Options) *SystemPool {
	return &SystemPool{opts: opts.withDefaults()}
}

// Options returns the pool's system template.
func (p *SystemPool) Options() Options { return p.opts }

// Plan lowers prog into an execution plan under the pool's
// instruction-set context — the context every pooled machine runs, and
// therefore the one FanPlan requires plans to be built under.
func (p *SystemPool) Plan(prog *isa.Program) (*plan.Executable, error) {
	return plan.Build(prog, p.opts.Topology, p.opts.OpConfig)
}

// Get checks a System out of the pool, reseeded to seed; when the pool
// is empty (or the backend cannot reseed) it builds a fresh one.
func (p *SystemPool) Get(seed int64) (*System, error) {
	if v := p.pool.Get(); v != nil {
		sys := v.(*System)
		if sys.Reseed(seed) {
			return sys, nil
		}
	}
	opts := p.opts
	opts.Seed = seed
	return NewSystem(opts)
}

// Put returns a System for reuse.
func (p *SystemPool) Put(sys *System) { p.pool.Put(sys) }

// FanPlan is the one shot-execution code path of the stack: it runs a
// pre-lowered execution plan for shots repetitions distributed over
// worker goroutines, each on its own pooled machine (machines are not
// concurrency safe) sharing the plan read-only. Worker w executes the
// contiguous shot range starting at w*ceil(shots/workers) with random
// stream baseSeed + w*SeedStride, so results are reproducible for a
// fixed worker count — and workers == 1 is bit-identical to a
// sequential System.RunShots run at baseSeed.
//
// observe is called serially for every shot in flight: runErr is that
// shot's execution failure (nil on success, with m holding the
// post-shot machine state; m is nil when the worker's machine could not
// be built). observe's return value is recorded as the shot's final
// error — wrap or replace runErr as needed, or return non-nil on a
// successful shot to abort the fan-out. The first recorded error stops
// all workers at their next shot boundary and is returned.
//
// ctx is checked between shots; cancellation stops the fan-out and
// returns context.Cause(ctx) without observing the remaining shots.
func (p *SystemPool) FanPlan(ctx context.Context, ex *plan.Executable, baseSeed int64,
	shots, workers int, observe func(shot int, m *microarch.Machine, runErr error) error) error {
	if shots <= 0 {
		return nil
	}
	return p.fan(ctx, baseSeed, shots, workers, observe,
		func(sys *System) error { return sys.LoadPlan(ex) })
}

// FanPlanBound is FanPlan over a bound parametric plan: every worker's
// machine shares the immutable Executable and the binding's patch
// table, so a sweep point costs a binding, not a recompile.
func (p *SystemPool) FanPlanBound(ctx context.Context, b *plan.Binding, baseSeed int64,
	shots, workers int, observe func(shot int, m *microarch.Machine, runErr error) error) error {
	if shots <= 0 {
		return nil
	}
	return p.fan(ctx, baseSeed, shots, workers, observe,
		func(sys *System) error { return sys.LoadBoundPlan(b) })
}

// fan distributes the shot ranges over workers, loading each checked
// out System through load.
func (p *SystemPool) fan(ctx context.Context, baseSeed int64, shots, workers int,
	observe func(shot int, m *microarch.Machine, runErr error) error,
	load func(*System) error) error {
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
	perWorker := (shots + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sys, buildErr := p.Get(baseSeed + int64(w)*SeedStride)
			if buildErr == nil {
				defer p.Put(sys)
				buildErr = load(sys)
			}
			for i := 0; i < perWorker; i++ {
				shot := w*perWorker + i
				if shot >= shots {
					return
				}
				if ctx.Err() != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = context.Cause(ctx)
					}
					mu.Unlock()
					return
				}
				var m *microarch.Machine
				runErr := buildErr
				if runErr == nil {
					m = sys.Machine
					m.Reset()
					runErr = m.Run()
				}
				// observe runs serially (shots may arrive out of order);
				// the worker holds the lock so its machine state is
				// stable while the callback reads it.
				mu.Lock()
				if firstErr == nil {
					firstErr = observe(shot, m, runErr)
				}
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
