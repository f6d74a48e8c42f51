package experiments

import (
	"fmt"
	"math"

	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

// Ramsey is the standard dephasing-time calibration partner of the T1
// experiment ("together with other experiments", Section 5): X90, a
// variable free-evolution delay realised with an artificial detuning
// applied as a delay-dependent z rotation, a second X90, and readout.
// The fringe visibility decays with T2, and the oscillation frequency
// checks the timing chain end to end.

// RamseyOptions configures the experiment.
type RamseyOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	// DelaysCycles lists the free-evolution times.
	DelaysCycles []int
	// DetuningTurnsPerUs sets the artificial detuning (default 0.5:
	// one fringe every 2 us).
	DetuningTurnsPerUs float64
	Shots              int
	Qubit              int
}

// RamseyPoint is one delay point.
type RamseyPoint struct {
	DelayNs float64
	P1      float64
	// Ideal is the noiseless expectation 0.5*(1+cos(2*pi*f*t)).
	Ideal float64
}

// RamseyResult is the fringe dataset.
type RamseyResult struct {
	Points []RamseyPoint
	// FittedT2Ns estimates the decay envelope of the fringe contrast.
	FittedT2Ns float64
}

// RunRamsey executes the experiment.
func RunRamsey(opts RamseyOptions) (*RamseyResult, error) {
	if len(opts.DelaysCycles) == 0 {
		opts.DelaysCycles = []int{0, 25, 50, 75, 100, 150, 200, 300, 400, 600, 800}
	}
	if opts.Shots == 0 {
		opts.Shots = 800
	}
	if opts.DetuningTurnsPerUs == 0 {
		opts.DetuningTurnsPerUs = 0.5
	}
	res := &RamseyResult{}
	for _, d := range opts.DelaysCycles {
		delayNs := float64(d) * isa.DefaultCycleNs
		// The artificial detuning becomes a delay-dependent z rotation,
		// configured as its own compile-time operation — exactly how
		// software-detuned Ramsey experiments run on hardware.
		turns := opts.DetuningTurnsPerUs * delayNs / 1000
		deg := math.Mod(360*turns, 360)
		cfg := isa.DefaultConfig()
		rzName, err := cfg.RotationName(quantum.AxisZ, deg)
		if err != nil {
			return nil, err
		}
		m, err := newMachine(microarch.Config{
			OpConfig: cfg,
			Noise:    opts.Noise,
			Seed:     opts.Seed + int64(d),
		})
		if err != nil {
			return nil, err
		}
		src := fmt.Sprintf(`
SMIS S0, {%d}
LDI R0, %d
QWAIT 10000
X90 S0
QWAITR R0
%s S0
X90 S0
MEASZ S0
QWAIT 50
STOP
`, opts.Qubit, d, rzName)
		if err := load(m, src); err != nil {
			return nil, err
		}
		ones := 0
		for shot := 0; shot < opts.Shots; shot++ {
			m.Reset()
			if err := m.Run(); err != nil {
				return nil, fmt.Errorf("ramsey shot %d: %w", shot, err)
			}
			if recs := m.Measurements(); len(recs) == 1 {
				ones += recs[0].Result
			}
		}
		pt := RamseyPoint{
			DelayNs: delayNs,
			P1:      ReadoutCorrect(float64(ones)/float64(opts.Shots), opts.Noise.ReadoutError),
			Ideal:   0.5 * (1 + math.Cos(2*math.Pi*turns)),
		}
		res.Points = append(res.Points, pt)
	}
	res.FittedT2Ns = fitRamseyEnvelope(res.Points)
	return res, nil
}

// fitRamseyEnvelope regresses log|2*P1 - 1| against delay over points
// with usable contrast, returning the decay constant.
func fitRamseyEnvelope(pts []RamseyPoint) float64 {
	var sx, sy, sxx, sxy, n float64
	for _, p := range pts {
		contrast := math.Abs(2*p.P1 - 1)
		idealContrast := math.Abs(2*p.Ideal - 1)
		// Only points where the ideal fringe is near an extremum carry
		// envelope information.
		if idealContrast < 0.9 || contrast < 0.02 {
			continue
		}
		x, y := p.DelayNs, math.Log(contrast/idealContrast)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return 0
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if slope >= 0 {
		return math.Inf(1)
	}
	return -1 / slope
}
