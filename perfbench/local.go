package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eqasm"
)

// Shots per Simulator.Run. A local op runs each program of its
// workload's rotation once, about 1000 shots in all, so every op does
// the same work and the per-op latency has a single mode.
const (
	smallChipShots = 500 // bell + qec
	feedbackShots  = 333 // active_reset + cfc + loop
	chain16Shots   = 1
	parityShots    = 16 // chain16's fusion on/off check
)

// Floors for the noisy feedback programs: the share of all of a run's
// shots that must read the ideal outcome under the calibrated noise
// model, which reads it in about 0.83-0.85 of shots.
const (
	resetFloor = 0.75 // active_reset: the qubit reads 0 after the reset
	cfcFloor   = 0.75 // cfc: qubit 0 reads 1 after the branch
	loopFloor  = 0.75 // loop: X twice leaves qubit 0 in 0
)

// localRun is one program of a local workload's op. check, when set,
// runs on every result; floor on the run's pooled results.
type localRun struct {
	name     string
	prog     *eqasm.Program
	shots    int
	opts     eqasm.RunOptions
	feedback bool
	check    func(*eqasm.Result) error
	floor    *floorCheck
}

// floorCheck pools a noisy program's results over a run: bit pos of the
// histogram keys must read want in at least the floor share of shots.
type floorCheck struct {
	pos         int
	want        byte
	floor       float64
	hits, shots int
}

func (f *floorCheck) add(res *eqasm.Result) {
	for k, n := range res.Histogram {
		if f.pos < len(k) && k[f.pos] == f.want {
			f.hits += n
		}
	}
	f.shots += res.Shots
}

// localInstance drives one in-process Simulator with Workers 1.
type localInstance struct {
	env  *env
	sim  *eqasm.Simulator
	mu   sync.Mutex // guards the floor counters
	runs []localRun
	// front holds the front-end and plan probe inputs; svc the service
	// probe's machine options and requests.
	front frontInputs
	svc   serviceProbe
	// parity, when set, is a check verify runs once per run.
	parity func() error
}

func (l *localInstance) op(_ int, rng *rand.Rand) (opOut, error) {
	var o opOut
	for _, r := range l.runs {
		opts := r.opts
		opts.Shots, opts.Seed, opts.Workers = r.shots, drawSeed(rng), 1
		t := time.Now()
		res, err := l.sim.Run(context.Background(), r.prog, opts)
		wall := time.Since(t)
		if err != nil {
			return o, fmt.Errorf("%s: %w", r.name, err)
		}
		if res.Shots != r.shots {
			l.env.checkf("%s seed %d: %d shots, want %d", r.name, opts.Seed, res.Shots, r.shots)
		} else if r.check != nil {
			if err := r.check(res); err != nil {
				l.env.checkf("%s seed %d: %v", r.name, opts.Seed, err)
			}
		}
		if r.floor != nil {
			l.mu.Lock()
			r.floor.add(res)
			l.mu.Unlock()
		}
		o.addResult(res, r.feedback)
		o.overheadNs += (wall - res.Duration).Nanoseconds()
	}
	return o, nil
}

func (l *localInstance) verify() error {
	if l.parity != nil {
		if err := l.parity(); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.runs {
		if f := r.floor; f != nil {
			if share := ratio(float64(f.hits), float64(f.shots)); share < f.floor {
				l.env.checkf("%s: bit %d reads %c in %.4f of %d shots, below the floor %.2f",
					r.name, f.pos, f.want, share, f.shots, f.floor)
			}
		}
	}
	return nil
}

func (l *localInstance) probe(rng *rand.Rand, m metrics) error {
	if err := probeFront(m, l.env, l.front, rng); err != nil {
		return err
	}
	return probeService(m, l.svc, rng)
}

func (l *localInstance) close() {}

func buildSmallChip(e *env) (instance, error) {
	sim, err := eqasm.NewSimulator(eqasm.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	bellSrc, err := e.read("testdata/programs/bell.eqasm")
	if err != nil {
		return nil, err
	}
	qecSrc, err := e.read("testdata/circuits/qec.qasm")
	if err != nil {
		return nil, err
	}
	bell, err := prepared(eqasm.Assemble(bellSrc, eqasm.WithTopology("twoqubit")))
	if err != nil {
		return nil, err
	}
	qec, err := prepared(eqasm.CompileOpenQASM(qecSrc, eqasm.WithTopology("surface7")))
	if err != nil {
		return nil, err
	}
	return &localInstance{
		env: e,
		sim: sim,
		runs: []localRun{
			{name: "bell", prog: bell, shots: smallChipShots, check: onlyKeys("00", "11")},
			// The Z checks (qubits 0, 1) read 0 on the ground state; the
			// X check (qubit 5) is a fair coin.
			{name: "qec", prog: qec, shots: smallChipShots, check: onlyKeys("000", "001")},
		},
		front: frontInputs{
			qasm:  []chipSource{{"surface7", qecSrc}},
			eqasm: []chipSource{{"twoqubit", bellSrc}},
		},
		svc: serviceProbe{
			machine: []eqasm.Option{eqasm.WithTopology("twoqubit")},
			reqs:    []probeReq{{prog: bell, shots: 64}},
		},
	}, nil
}

func buildFeedback(e *env) (instance, error) {
	sim, err := eqasm.NewSimulator(eqasm.WithWorkers(1), eqasm.WithCalibratedNoise())
	if err != nil {
		return nil, err
	}
	l := &localInstance{
		env: e,
		sim: sim,
		svc: serviceProbe{machine: []eqasm.Option{eqasm.WithTopology("twoqubit"), eqasm.WithCalibratedNoise()}},
	}
	for _, f := range []struct {
		name  string
		floor floorCheck
	}{
		{"active_reset", floorCheck{pos: 0, want: '0', floor: resetFloor}},
		{"cfc", floorCheck{pos: 0, want: '1', floor: cfcFloor}},
		{"loop", floorCheck{pos: 0, want: '0', floor: loopFloor}},
	} {
		src, err := e.read("testdata/programs/" + f.name + ".eqasm")
		if err != nil {
			return nil, err
		}
		p, err := prepared(eqasm.Assemble(src, eqasm.WithTopology("twoqubit")))
		if err != nil {
			return nil, err
		}
		floor := f.floor
		l.runs = append(l.runs, localRun{name: f.name, prog: p, shots: feedbackShots, feedback: true, floor: &floor})
		l.front.eqasm = append(l.front.eqasm, chipSource{"twoqubit", src})
		l.svc.reqs = append(l.svc.reqs, probeReq{prog: p, shots: 64})
	}
	return l, nil
}

func buildChain16(e *env) (instance, error) {
	sim, err := eqasm.NewSimulator(eqasm.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	src, err := e.read("testdata/programs/rz_chain16.eqasm")
	if err != nil {
		return nil, err
	}
	p, err := prepared(eqasm.Assemble(src, eqasm.WithTopology("chain16")))
	if err != nil {
		return nil, err
	}
	opts := eqasm.RunOptions{Backend: eqasm.BackendStateVector, Fusion: eqasm.FusionOn}
	// The fused kernels must not change results: at the first op's seed,
	// parityShots shots run with fusion on and off and must agree
	// exactly. One shot rarely tells a slightly wrong kernel from the
	// right one, so the check takes more shots than an op.
	parity := func() error {
		seed := drawSeed(e.rng(streamWarmup, 0))
		var outs [2]*eqasm.Result
		for i, fusion := range []string{eqasm.FusionOn, eqasm.FusionOff} {
			o := opts
			o.Shots, o.Seed, o.Workers, o.Fusion = parityShots, seed, 1, fusion
			var err error
			if outs[i], err = sim.Run(context.Background(), p, o); err != nil {
				return fmt.Errorf("rz_chain16 fusion %s: %w", fusion, err)
			}
		}
		if !maps.Equal(outs[0].Histogram, outs[1].Histogram) || outs[0].TotalStats != outs[1].TotalStats {
			e.checkf("rz_chain16 seed %d: fused %v %+v, unfused %v %+v", seed,
				outs[0].Histogram, outs[0].TotalStats, outs[1].Histogram, outs[1].TotalStats)
		}
		return nil
	}
	return &localInstance{
		env: e,
		sim: sim,
		runs: []localRun{{name: "rz_chain16", prog: p, shots: chain16Shots, opts: opts, check: func(res *eqasm.Result) error {
			for k := range res.Histogram {
				if len(k) != 16 {
					return fmt.Errorf("histogram key %q does not cover 16 qubits", k)
				}
			}
			return nil
		}}},
		parity: parity,
		front:  frontInputs{eqasm: []chipSource{{"chain16", src}}},
		svc: serviceProbe{
			machine: []eqasm.Option{eqasm.WithTopology("chain16")},
			reqs:    []probeReq{{prog: p, shots: chain16Shots, backend: eqasm.BackendStateVector}},
		},
	}, nil
}

// prepared builds a program's execution plan, so the plan is part of
// set-up rather than of the first op.
func prepared(p *eqasm.Program, err error) (*eqasm.Program, error) {
	if err != nil {
		return nil, err
	}
	if _, err := p.Prepare(); err != nil {
		return nil, err
	}
	return p, nil
}

func (e *env) read(rel string) (string, error) {
	b, err := os.ReadFile(filepath.Join(e.root, rel))
	return string(b), err
}

// onlyKeys checks that every histogram key is one of keys.
func onlyKeys(keys ...string) func(*eqasm.Result) error {
	return func(res *eqasm.Result) error {
		for k := range res.Histogram {
			found := false
			for _, want := range keys {
				found = found || k == want
			}
			if !found {
				return fmt.Errorf("histogram %v has key %q outside %v", res.Histogram, k, keys)
			}
		}
		return nil
	}
}
