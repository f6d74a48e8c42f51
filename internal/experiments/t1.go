package experiments

import (
	"fmt"
	"math"

	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

// T1Options configures the relaxation-time experiment the design
// guidelines call out (Section 2.2): excite the qubit, wait a variable
// time, measure. The variable wait uses QWAITR with a register loaded per
// point, exercising register-valued timing.
type T1Options struct {
	Noise quantum.NoiseModel
	Seed  int64
	// DelaysCycles lists the waiting times in cycles.
	DelaysCycles []int
	Shots        int
	Qubit        int
}

// T1Point is one delay point.
type T1Point struct {
	DelayNs float64
	P1      float64
}

// T1Result is the decay dataset.
type T1Result struct {
	Points []T1Point
	// FittedT1Ns is the exponential-decay fit.
	FittedT1Ns float64
}

// RunT1 executes the T1 experiment.
func RunT1(opts T1Options) (*T1Result, error) {
	if len(opts.DelaysCycles) == 0 {
		opts.DelaysCycles = []int{0, 250, 500, 1000, 1500, 2250, 3000}
	}
	if opts.Shots == 0 {
		opts.Shots = 800
	}
	m, err := newMachine(microarch.Config{
		Noise:            opts.Noise,
		Seed:             opts.Seed,
		UseDensityMatrix: true,
	})
	if err != nil {
		return nil, err
	}
	res := &T1Result{}
	for _, d := range opts.DelaysCycles {
		src := fmt.Sprintf(`
SMIS S0, {%d}
LDI R0, %d
QWAIT 10000
X S0
QWAITR R0
MEASZ S0
QWAIT 50
STOP
`, opts.Qubit, d)
		if err := load(m, src); err != nil {
			return nil, err
		}
		ones := 0
		for shot := 0; shot < opts.Shots; shot++ {
			m.Reset()
			if err := m.Run(); err != nil {
				return nil, fmt.Errorf("t1 shot %d: %w", shot, err)
			}
			if recs := m.Measurements(); len(recs) == 1 {
				ones += recs[0].Result
			}
		}
		res.Points = append(res.Points, T1Point{
			DelayNs: float64(d) * float64(m.CycleNs()),
			P1:      ReadoutCorrect(float64(ones)/float64(opts.Shots), opts.Noise.ReadoutError),
		})
	}
	res.FittedT1Ns = fitT1(res.Points)
	return res, nil
}

// fitT1 fits P1(t) = A exp(-t/T1) by regression of log(P1) on t.
func fitT1(pts []T1Point) float64 {
	var sx, sy, sxx, sxy float64
	n := 0.0
	for _, p := range pts {
		if p.P1 < 0.02 {
			continue
		}
		x, y := p.DelayNs, math.Log(p.P1)
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
