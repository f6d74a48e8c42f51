package experiments

import (
	"fmt"
	"math/rand"

	"eqasm/internal/compiler"
	"eqasm/internal/core"
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
	circ := &compiler.Circuit{NumQubits: 3}
	circ.Gates = append(circ.Gates, compiler.Gate{Name: "X", Qubits: []int{0}})
	for i := 0; i < opts.ChainLength; i++ {
		name := "X90"
		if i%2 == 1 {
			name = "Xm90"
		}
		circ.Gates = append(circ.Gates, compiler.Gate{Name: name, Qubits: []int{2}})
	}
	circ.Gates = append(circ.Gates, compiler.Gate{Name: "CZ", Qubits: []int{2, 0}})

	asap, err := compiler.ASAP(circ)
	if err != nil {
		return nil, err
	}
	alap, err := compiler.ALAP(circ)
	if err != nil {
		return nil, err
	}
	res := &SchedulingComparison{}
	res.IdleGapCycles = startOfX(alap) - startOfX(asap)

	// The ideal final state for fidelity reference.
	ideal := quantum.NewState(3, rand.New(rand.NewSource(1)))
	cfgRef, err := core.NewSystem(core.Options{})
	if err != nil {
		return nil, err
	}
	for _, g := range asap.Gates {
		def, ok := cfgRef.OpConfig.ByName(g.Name)
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

	run := func(s *compiler.Schedule) (float64, error) {
		sys, err := core.NewSystem(core.Options{
			Noise:            opts.Noise,
			Seed:             opts.Seed,
			UseDensityMatrix: true,
		})
		if err != nil {
			return 0, err
		}
		em := compiler.NewEmitter(sys.OpConfig, topology.TwoQubit())
		prog, err := em.Emit(s, compiler.EmitOptions{SOMQ: true, AppendStop: true})
		if err != nil {
			return 0, err
		}
		if err := sys.LoadProgram(prog); err != nil {
			return 0, err
		}
		if err := sys.Run(); err != nil {
			return 0, err
		}
		dm := sys.Machine.Backend().(*quantum.DMBackend)
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

func startOfX(s *compiler.Schedule) int64 {
	for _, g := range s.Gates {
		if g.Name == "X" {
			return g.Start
		}
	}
	return -1
}
