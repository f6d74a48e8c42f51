package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

// RBTimingOptions configures the Fig. 12 experiment: single-qubit
// randomized benchmarking at different intervals between the starting
// points of consecutive gates.
type RBTimingOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	// IntervalsCycles lists the gate spacings in 20 ns cycles; the paper
	// uses 1, 2, 4, 8, 16 (20-320 ns).
	IntervalsCycles []int
	// Lengths lists the Clifford counts k.
	Lengths []int
	// Randomizations is the number of random sequences averaged per k.
	Randomizations int
	// Qubit is the physical qubit under test.
	Qubit int
}

// DefaultRBTiming returns the paper's sweep at a tractable size.
func DefaultRBTiming() RBTimingOptions {
	return RBTimingOptions{
		IntervalsCycles: []int{1, 2, 4, 8, 16},
		Lengths:         []int{1, 4, 8, 16, 32, 64, 128, 192, 256, 384, 512},
		Randomizations:  12,
		Qubit:           0,
	}
}

// RBCurve is the decay curve for one interval.
type RBCurve struct {
	IntervalCycles int
	IntervalNs     float64
	Lengths        []int
	// Survival[i] is the mean ground-state probability after Lengths[i]
	// Cliffords plus recovery.
	Survival []float64
	// F1 is 1 - Survival (the paper's y axis).
	F1 []float64
	// DecayF is the fitted depolarizing parameter f in
	// p(k) = 0.5 + A f^k.
	DecayF float64
	// CliffordFidelity is (1+f)/2.
	CliffordFidelity float64
	// ErrorPerGate is 1 - F_Cl^(1/1.875), the paper's epsilon.
	ErrorPerGate float64
}

// RBTimingResult is the Fig. 12 dataset.
type RBTimingResult struct {
	Curves []RBCurve
}

// rbProgram builds the instruction sequence for one RB run: the gates of
// the sequence spaced by the interval, with no final measurement (the
// experiment reads the exact ground-state population from the simulated
// chip, equivalent to the paper's averaging over many shots).
func rbProgram(qubit int, gates []string, intervalCycles int) *isa.Program {
	p := &isa.Program{Labels: map[string]int{}}
	p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpSMIS, Addr: 0, Mask: isa.QubitMask(qubit)})
	for i, g := range gates {
		pi := intervalCycles
		if i == 0 {
			pi = 1
		}
		if pi <= isa.Default.MaxPI() {
			p.Instrs = append(p.Instrs, isa.NewBundle(uint8(pi), isa.QOp{Name: g, Target: 0}))
		} else {
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpQWAIT, Imm: int32(pi)})
			p.Instrs = append(p.Instrs, isa.NewBundle(0, isa.QOp{Name: g, Target: 0}))
		}
	}
	p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpSTOP})
	return p
}

// RunRBTiming executes the Fig. 12 experiment.
func RunRBTiming(opts RBTimingOptions) (*RBTimingResult, error) {
	if len(opts.IntervalsCycles) == 0 {
		def := DefaultRBTiming()
		def.Noise = opts.Noise
		def.Seed = opts.Seed
		opts = def
	}
	m, err := newMachine(microarch.Config{
		Noise:            opts.Noise,
		Seed:             opts.Seed,
		UseDensityMatrix: true,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	res := &RBTimingResult{}
	for _, iv := range opts.IntervalsCycles {
		curve := RBCurve{
			IntervalCycles: iv,
			IntervalNs:     float64(iv) * float64(m.CycleNs()),
			Lengths:        opts.Lengths,
		}
		for _, k := range opts.Lengths {
			var sum float64
			for r := 0; r < opts.Randomizations; r++ {
				seq := quantum.NewRBSequence(k, rng)
				prog := rbProgram(opts.Qubit, seq.Primitives(), iv)
				if err := m.LoadProgram(prog); err != nil {
					return nil, fmt.Errorf("rb interval %d k %d: %w", iv, k, err)
				}
				m.Reset()
				if err := m.Run(); err != nil {
					return nil, fmt.Errorf("rb interval %d k %d: %w", iv, k, err)
				}
				sum += 1 - m.Backend().Prob1(opts.Qubit)
			}
			curve.Survival = append(curve.Survival, sum/float64(opts.Randomizations))
		}
		for _, s := range curve.Survival {
			curve.F1 = append(curve.F1, 1-s)
		}
		curve.DecayF = fitDecay(curve.Lengths, curve.Survival)
		curve.CliffordFidelity = (1 + curve.DecayF) / 2
		curve.ErrorPerGate = 1 - math.Pow(curve.CliffordFidelity, 1/1.875)
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// fitDecay fits p(k) = 0.5 + A f^k by linear regression of
// log(p - 0.5) on k, over the points still clearly above the floor.
func fitDecay(ks []int, ps []float64) float64 {
	var xs, ys []float64
	for i, k := range ks {
		d := ps[i] - 0.5
		if d < 0.02 {
			continue
		}
		xs = append(xs, float64(k))
		ys = append(ys, math.Log(d))
	}
	if len(xs) < 2 {
		return 0
	}
	// Least squares slope.
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	return math.Exp(slope)
}

// Render formats the Fig. 12 summary: error per gate versus interval.
func (r *RBTimingResult) Render() string {
	var b strings.Builder
	b.WriteString("interval   error/gate   Clifford fidelity\n")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%5.0f ns   %.3f %%      %.5f\n", c.IntervalNs, 100*c.ErrorPerGate, c.CliffordFidelity)
	}
	return b.String()
}
