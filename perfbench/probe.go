package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"eqasm"
	"eqasm/internal/compiler"
	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/openqasm"
	"eqasm/internal/plan"
	"eqasm/internal/service"
	"eqasm/internal/topology"
)

// The probes time each layer's public functions from outside, on the
// workload's own inputs, after the traced window. Nothing inside the
// program is instrumented.

// chipSource is program text bound for one chip.
type chipSource struct{ chip, src string }

// frontInputs are a workload's front-end inputs. A workload that
// compiles no circuit is probed on the QEC cycle, and one without a
// parametric circuit binds the rz_sweep ansatz, so every layer reports
// a measured time on every workload.
type frontInputs struct {
	qasm  []chipSource // OpenQASM: parse, each compiler pass, plan build
	eqasm []chipSource // eQASM: assemble, plan build
	param chipSource   // parametric OpenQASM: bind
}

// frontReps is how often each front-end input is timed; each metric is
// the mean over inputs of the median over repetitions.
const (
	frontReps = 30
	bindReps  = 1000
)

func probeFront(m metrics, e *env, in frontInputs, rng *rand.Rand) error {
	if len(in.qasm) == 0 {
		src, err := e.read("testdata/circuits/qec.qasm")
		if err != nil {
			return err
		}
		in.qasm = []chipSource{{"surface7", src}}
	}
	if in.param.src == "" {
		src, err := e.read("testdata/circuits/rz_sweep.qasm")
		if err != nil {
			return err
		}
		in.param = chipSource{"twoqubit", src}
	}

	var parse, build, assemble []float64
	passes := map[string][]float64{}
	for _, c := range in.qasm {
		p, err := timeReps(func() error { _, err := openqasm.Parse(c.src); return err })
		if err != nil {
			return fmt.Errorf("openqasm parse: %w", err)
		}
		parse = append(parse, p)
		perPass, err := timePasses(c)
		if err != nil {
			return err
		}
		for name, v := range perPass {
			passes[name] = append(passes[name], v)
		}
		b, err := timePrepare(func() (*eqasm.Program, error) {
			return eqasm.CompileOpenQASM(c.src, eqasm.WithTopology(c.chip))
		})
		if err != nil {
			return err
		}
		build = append(build, b)
	}
	for _, c := range in.eqasm {
		a, err := timeReps(func() error { _, err := eqasm.Assemble(c.src, eqasm.WithTopology(c.chip)); return err })
		if err != nil {
			return fmt.Errorf("assemble: %w", err)
		}
		assemble = append(assemble, a)
		b, err := timePrepare(func() (*eqasm.Program, error) { return eqasm.Assemble(c.src, eqasm.WithTopology(c.chip)) })
		if err != nil {
			return err
		}
		build = append(build, b)
	}
	bind, err := timeBind(in.param, rng)
	if err != nil {
		return err
	}
	m.set("openqasm.parse_us", mean(parse)/1e3, "us")
	for name, v := range passes {
		m.set("compiler."+name+"_us", mean(v)/1e3, "us")
	}
	m.set("asm.assemble_us", mean(assemble)/1e3, "us")
	m.set("plan.build_us", mean(build)/1e3, "us")
	m.set("plan.bind_us", bind/1e3, "us")
	return nil
}

// timeReps returns the median wall time of f in nanoseconds.
func timeReps(f func() error) (float64, error) {
	ns := make([]float64, frontReps)
	for i := range ns {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(ns), nil
}

// timePrepare times Program.Prepare on a plan-cache miss: each
// repetition builds a fresh program (untimed) and plans it.
func timePrepare(fresh func() (*eqasm.Program, error)) (float64, error) {
	ns := make([]float64, frontReps)
	for i := range ns {
		p, err := fresh()
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if _, err := p.Prepare(); err != nil {
			return 0, fmt.Errorf("prepare: %w", err)
		}
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(ns), nil
}

func topologyFor(chip string) (*topology.Topology, error) {
	switch chip {
	case "twoqubit":
		return topology.TwoQubit(), nil
	case "surface7":
		return topology.Surface7(), nil
	}
	return nil, fmt.Errorf("no compiler probe for chip %q", chip)
}

// newPipeline is the executable pipeline eqasm.CompileOpenQASM runs for
// default options.
func newPipeline(chip string) (*compiler.Pipeline, *topology.Topology, error) {
	topo, err := topologyFor(chip)
	if err != nil {
		return nil, nil, err
	}
	pl, err := compiler.NewPipeline(compiler.PipelineConfig{
		Config:     isa.DefaultConfig(),
		Topo:       topo,
		Inst:       isa.Default,
		Arch:       compiler.DefaultArch(isa.Default),
		AppendStop: true,
	})
	return pl, topo, err
}

// timePasses returns each compiler pass's median time in nanoseconds,
// taken through a pipeline observer.
func timePasses(c chipSource) (map[string]float64, error) {
	times := map[string][]float64{}
	for i := 0; i < frontReps; i++ {
		p, err := openqasm.Parse(c.src)
		if err != nil {
			return nil, err
		}
		pl, _, err := newPipeline(c.chip)
		if err != nil {
			return nil, err
		}
		last := time.Now()
		pl.Observe(func(pass string, _ *ir.Program) error {
			now := time.Now()
			times[pass] = append(times[pass], float64(now.Sub(last).Nanoseconds()))
			last = now
			return nil
		})
		last = time.Now()
		if err := pl.Run(p); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
	}
	out := make(map[string]float64, len(times))
	for k, v := range times {
		out[k] = median(v)
	}
	return out, nil
}

// timeBind returns the median time of Executable.Bind at fresh
// parameter points.
func timeBind(c chipSource, rng *rand.Rand) (float64, error) {
	p, err := openqasm.Parse(c.src)
	if err != nil {
		return 0, err
	}
	pl, topo, err := newPipeline(c.chip)
	if err != nil {
		return 0, err
	}
	if err := pl.Run(p); err != nil {
		return 0, err
	}
	ex, err := plan.Build(p.Code, topo, isa.DefaultConfig())
	if err != nil {
		return 0, err
	}
	names := ex.ParamNames()
	if len(names) == 0 {
		return 0, fmt.Errorf("bind probe: circuit has no parameters")
	}
	ns := make([]float64, bindReps)
	point := make(map[string]float64, len(names))
	for i := range ns {
		for _, n := range names {
			point[n] = rng.Float64() * 6.28
		}
		t := time.Now()
		if _, err := ex.Bind(point); err != nil {
			return 0, err
		}
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(ns), nil
}

// serviceProbe describes the requests a workload sends through a fresh
// serving stack configured like its own backend.
type serviceProbe struct {
	machine []eqasm.Option
	reqs    []probeReq                         // rotated, at fresh seeds
	draw    func(*rand.Rand) (probeReq, error) // replaces reqs when set
}

type probeReq struct {
	prog *eqasm.Program
	// qasm is the OpenQASM source of a compiled program: the in-process
	// request carries it for the service to compile, since a compiled
	// program has no eQASM source of its own.
	qasm    string
	shots   int
	backend string
	params  map[string]float64
}

const serviceProbeReqs = 100

// probeService sends the same requests through eqasm.Client over
// loopback and then through service.Service.Run in process, one at a
// time, and reports the service time, the wire overhead, the bytes on
// the wire and the cache hit rates of the client pass.
func probeService(m metrics, sp serviceProbe, rng *rand.Rand) error {
	st, err := startStack(sp.machine, 1)
	if err != nil {
		return err
	}
	defer st.close()
	client := st.client()
	ctx := context.Background()

	reqs := make([]probeReq, serviceProbeReqs)
	seeds := make([]int64, len(reqs))
	specs := make([]service.JobSpec, len(reqs))
	for i := range reqs {
		if sp.draw != nil {
			if reqs[i], err = sp.draw(rng); err != nil {
				return err
			}
		} else {
			reqs[i] = sp.reqs[i%len(sp.reqs)]
		}
		seeds[i] = drawSeed(rng)
		r := reqs[i]
		specs[i] = service.JobSpec{Source: r.prog.Source(), Shots: r.shots, Seed: seeds[i],
			Chip: r.prog.Chip(), Backend: r.backend, Params: r.params}
		if r.qasm != "" {
			specs[i].Source, specs[i].Format = r.qasm, service.FormatOpenQASM
		}
	}

	before := st.svc.Stats()
	bytes0 := st.wire.bytes.Load()
	var clientNs, runNs, directNs []float64
	for i, r := range reqs {
		t := time.Now()
		res, err := client.Run(ctx, r.prog, eqasm.RunOptions{Shots: r.shots, Seed: seeds[i], Backend: r.backend, Params: r.params})
		if err != nil {
			return fmt.Errorf("client run: %w", err)
		}
		clientNs = append(clientNs, float64(time.Since(t).Nanoseconds()))
		runNs = append(runNs, float64(res.Duration.Nanoseconds()))
	}
	after := st.svc.Stats()
	wire := st.wire.bytes.Load() - bytes0
	for _, spec := range specs {
		t := time.Now()
		if _, err := st.svc.Run(ctx, spec); err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		directNs = append(directNs, float64(time.Since(t).Nanoseconds()))
	}

	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	planHits := float64(after.PlanCacheHits - before.PlanCacheHits)
	planMisses := float64(after.PlanCacheMisses - before.PlanCacheMisses)
	m.set("service.run_us", median(runNs)/1e3, "us")
	m.set("service.direct_us", median(directNs)/1e3, "us")
	m.set("httpapi.overhead_us", (median(clientNs)-median(directNs))/1e3, "us")
	m.set("httpapi.bytes_per_request", float64(wire)/float64(len(reqs)), "B")
	m.set("service.cache_hit_frac", ratio(hits, hits+misses), "fraction")
	m.set("service.plan_hit_frac", ratio(planHits, planHits+planMisses), "fraction")
	return nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}
