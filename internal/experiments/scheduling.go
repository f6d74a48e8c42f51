package experiments

import (
	"fmt"
	"math/rand"

	"eqasm/internal/compiler"
	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// SchedulingComparison quantifies the compiler timing optimization the
// paper's explicit-timing design enables: Fig. 12 shows errors accumulate
// while qubits idle, so a schedule that keeps qubits initialised as long
// as possible (ALAP) beats the eager ASAP schedule on fidelity at the
// same makespan — "this enables the programmer to schedule and time the
// quantum operations to achieve higher fidelity" (Section 2.4).
type SchedulingComparison struct {
	// ASAPFidelity / ALAPFidelity are the final-state fidelities against
	// the ideal output for the two schedules of the same circuit.
	ASAPFidelity, ALAPFidelity float64
	// IdleGapCycles is how much earlier ASAP runs the early gate.
	IdleGapCycles int64
}

// SchedulingOptions configures the comparison.
type SchedulingOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	// ChainLength is the busy qubit's gate count; the other qubit idles
	// for this long between its X and the joining CZ (default 40).
	ChainLength int
}

// RunSchedulingComparison builds the asymmetric circuit (one qubit gets
// an X then waits, the other runs a long chain, a CZ joins them),
// compiles it under both schedulers, executes both programs on the noisy
// chip and reports the fidelities.
func RunSchedulingComparison(opts SchedulingOptions) (*SchedulingComparison, error) {
	if opts.ChainLength == 0 {
		opts.ChainLength = 40
	}
	// compile builds the circuit and compiles it for the two-qubit chip
	// under the chosen scheduler.
	compile := func(alap bool) (*ir.Program, error) {
		circ := &ir.Program{NumQubits: 3}
		circ.Gates = append(circ.Gates, ir.Gate{Name: "X", Qubits: []int{0}})
		for i := 0; i < opts.ChainLength; i++ {
			name := "X90"
			if i%2 == 1 {
				name = "Xm90"
			}
			circ.Gates = append(circ.Gates, ir.Gate{Name: name, Qubits: []int{2}})
		}
		circ.Gates = append(circ.Gates, ir.Gate{Name: "CZ", Qubits: []int{2, 0}})
		arch := compiler.DefaultArch(isa.Default)
		arch.SOMQ = true
		pl, err := compiler.NewPipeline(compiler.PipelineConfig{
			Config: isa.DefaultConfig(), Topo: topology.TwoQubit(), Inst: isa.Default,
			ALAP: alap, Arch: arch, AppendStop: true,
		})
		if err != nil {
			return nil, err
		}
		return circ, pl.Run(circ)
	}
	asap, err := compile(false)
	if err != nil {
		return nil, err
	}
	alap, err := compile(true)
	if err != nil {
		return nil, err
	}
	res := &SchedulingComparison{}
	// Gate 0 is the early X.
	res.IdleGapCycles = alap.Starts[0] - asap.Starts[0]

	// The ideal final state for fidelity reference.
	ideal := quantum.NewState(3, rand.New(rand.NewSource(1)))
	opCfg := isa.DefaultConfig()
	for _, i := range asap.Order {
		g := asap.Gates[i]
		def, ok := opCfg.ByName(g.Name)
		if !ok {
			return nil, fmt.Errorf("experiments: op %q missing", g.Name)
		}
		if g.IsTwoQubit() {
			ideal.Apply2(def.Unitary2, g.Qubits[0], g.Qubits[1])
		} else {
			ideal.Apply1(def.Unitary1, g.Qubits[0])
		}
	}
	psi := make([]complex128, 1<<3)
	for i := range psi {
		psi[i] = ideal.Amplitude(i)
	}

	run := func(p *ir.Program) (float64, error) {
		m, err := newMachine(microarch.Config{
			Noise:            opts.Noise,
			Seed:             opts.Seed,
			UseDensityMatrix: true,
		})
		if err != nil {
			return 0, err
		}
		if err := m.LoadProgram(p.Code); err != nil {
			return 0, err
		}
		if err := m.Run(); err != nil {
			return 0, err
		}
		dm := m.Backend().(*quantum.DMBackend)
		return dm.Density.FidelityPure(psi), nil
	}
	if res.ASAPFidelity, err = run(asap); err != nil {
		return nil, fmt.Errorf("experiments: ASAP run: %w", err)
	}
	if res.ALAPFidelity, err = run(alap); err != nil {
		return nil, fmt.Errorf("experiments: ALAP run: %w", err)
	}
	return res, nil
}
