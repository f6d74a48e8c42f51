package experiments

import (
	"fmt"
	"math"

	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

// RabiOptions configures the Rabi-oscillation calibration experiment of
// Section 5: a sequence of fixed-length x-rotation pulses with variable
// amplitude, each uploaded as its own user-defined operation X_AMP_<i> —
// the paper's demonstration that eQASM supports uncalibrated operations
// configured at compile time.
type RabiOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	// Steps is the number of amplitude points (default 21, sweeping the
	// rotation angle from 0 to 2*pi).
	Steps int
	Shots int
	Qubit int
}

// RabiPoint is one amplitude point.
type RabiPoint struct {
	Index int
	// Angle is the rotation angle the amplitude realises.
	Angle float64
	// P1 is the measured excited-state probability.
	P1 float64
	// Ideal is sin^2(angle/2).
	Ideal float64
}

// RabiResult is the oscillation dataset.
type RabiResult struct {
	Points []RabiPoint
	// MaxDeviation is the largest |P1 - ideal|.
	MaxDeviation float64
	// PiPulseIndex is the amplitude index maximising P1: the calibrated
	// X-gate amplitude this experiment exists to find.
	PiPulseIndex int
}

// RunRabi executes the amplitude sweep.
func RunRabi(opts RabiOptions) (*RabiResult, error) {
	if opts.Steps == 0 {
		opts.Steps = 21
	}
	if opts.Shots == 0 {
		opts.Shots = 600
	}
	cfg, names, err := isa.DefaultConfig().WithRabiAmplitudes(opts.Steps, 2*math.Pi)
	if err != nil {
		return nil, err
	}
	m, err := newMachine(microarch.Config{
		OpConfig: cfg,
		Noise:    opts.Noise,
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &RabiResult{}
	best := -1.0
	for i, name := range names {
		src := fmt.Sprintf(`
SMIS S0, {%d}
QWAIT 10000
%s S0
MEASZ S0
QWAIT 50
STOP
`, opts.Qubit, name)
		if err := load(m, src); err != nil {
			return nil, err
		}
		ones := 0
		for shot := 0; shot < opts.Shots; shot++ {
			m.Reset()
			if err := m.Run(); err != nil {
				return nil, fmt.Errorf("rabi shot %d: %w", shot, err)
			}
			if recs := m.Measurements(); len(recs) == 1 {
				ones += recs[0].Result
			}
		}
		angle := 2 * math.Pi * float64(i) / float64(opts.Steps-1)
		pt := RabiPoint{
			Index: i,
			Angle: angle,
			P1:    ReadoutCorrect(float64(ones)/float64(opts.Shots), opts.Noise.ReadoutError),
			Ideal: math.Pow(math.Sin(angle/2), 2),
		}
		if d := math.Abs(pt.P1 - pt.Ideal); d > res.MaxDeviation {
			res.MaxDeviation = d
		}
		if pt.P1 > best {
			best = pt.P1
			res.PiPulseIndex = i
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
