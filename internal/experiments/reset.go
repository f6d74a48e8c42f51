package experiments

import (
	"fmt"

	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

// ResetOptions configures the active qubit reset experiment (Fig. 4).
type ResetOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	Shots int
	// Qubit is the physical qubit (the paper uses qubit 2).
	Qubit int
}

// ResetResult reports the active-reset outcome.
type ResetResult struct {
	Shots int
	// P0 is the probability of measuring |0> after the conditional C_X
	// (the paper measures 82.7%, limited by readout fidelity).
	P0 float64
	// PFlipApplied is the fraction of shots in which the C_X actually
	// fired (first measurement reported 1).
	PFlipApplied float64
	// FirstP1 is the fraction of first measurements reporting 1 (~0.5
	// after the X90).
	FirstP1 float64
}

// RunReset executes the Fig. 4 program: initialise by relaxation, X90 to
// the equator, measure, conditionally flip with C_X under fast
// conditional execution, measure again.
func RunReset(opts ResetOptions) (*ResetResult, error) {
	if opts.Shots == 0 {
		opts.Shots = 4000
	}
	if opts.Qubit == 0 {
		opts.Qubit = 2
	}
	m, err := newMachine(microarch.Config{
		Noise: opts.Noise,
		Seed:  opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	src := fmt.Sprintf(`
SMIS S2, {%d}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
QWAIT 50
STOP
`, opts.Qubit)
	if err := load(m, src); err != nil {
		return nil, err
	}
	res := &ResetResult{Shots: opts.Shots}
	var zeros, flips, firstOnes int
	for shot := 0; shot < opts.Shots; shot++ {
		m.Reset()
		if err := m.Run(); err != nil {
			return nil, fmt.Errorf("reset shot %d: %w", shot, err)
		}
		recs := m.Measurements()
		if len(recs) != 2 {
			continue
		}
		if recs[0].Result == 1 {
			firstOnes++
		}
		if m.Stats().OpsCancelled == 0 {
			flips++
		}
		if recs[1].Result == 0 {
			zeros++
		}
	}
	res.P0 = float64(zeros) / float64(opts.Shots)
	res.PFlipApplied = float64(flips) / float64(opts.Shots)
	res.FirstP1 = float64(firstOnes) / float64(opts.Shots)
	return res, nil
}
