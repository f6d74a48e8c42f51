package experiments

import (
	"fmt"
	"math"
	"strings"

	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

// Iterative quantum phase estimation (Kitaev), the paper's introductory
// example of the "quantum data, classical control" paradigm eQASM exists
// to support (Section 1 cites it alongside active reset and
// repeat-until-success). One ancilla estimates the eigenphase of a
// diagonal unitary bit by bit, least significant first; every iteration
// feeds the measured bits back as a classically selected phase
// correction, and the ancilla is recycled between iterations with the
// fast-conditional active reset. The generated program therefore
// exercises, in one workload: CFC (FMR/CMP/BR trees), fast conditional
// execution (C_X reset), classical arithmetic (accumulator doubling and
// addition), compile-time configured custom operations (the
// controlled-U powers and feedback rotations), SOMQ-addressed
// measurements and explicit timing.

// IQPEOptions configures the experiment.
type IQPEOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	// Bits is the number of phase bits to extract (default 3).
	Bits int
	// PhaseNumerator sets the true eigenphase phi = 2*pi *
	// PhaseNumerator / 2^Bits.
	PhaseNumerator int
	// Shots repeats the full estimation (default 200).
	Shots int
}

// IQPEResult reports the estimation outcome.
type IQPEResult struct {
	Bits           int
	PhaseNumerator int
	// SuccessRate is the fraction of shots recovering the exact
	// numerator.
	SuccessRate float64
	// Histogram counts the estimated numerators over shots.
	Histogram map[int]int
	// Program is the generated eQASM (for inspection and examples).
	Program string
}

// iqpeConfig extends the default operation set with the controlled-U
// powers and the feedback rotations all possible bit histories need.
func iqpeConfig(bits, numerator int) (*isa.OpConfig, error) {
	cfg := isa.DefaultConfig()
	phi := 2 * math.Pi * float64(numerator) / float64(int(1)<<uint(bits))
	for k := 0; k < bits; k++ {
		theta := math.Mod(float64(int(1)<<uint(k))*phi, 2*math.Pi)
		var u quantum.Matrix4 = quantum.Matrix4{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
			{0, 0, 0, complex(math.Cos(theta), math.Sin(theta))},
		}
		if _, err := cfg.Define(isa.OpDef{
			Name:           fmt.Sprintf("CU_P%d", k),
			Kind:           isa.OpKindTwo,
			DurationCycles: isa.DefaultGate2QCycles,
			Unitary2:       u,
		}); err != nil {
			return nil, err
		}
	}
	for j := 2; j <= bits; j++ {
		for v := 0; v < 1<<uint(j-1); v++ {
			omega := -2 * math.Pi * float64(v) / float64(int(1)<<uint(j))
			u := quantum.Matrix2{
				{1, 0},
				{0, complex(math.Cos(omega), math.Sin(omega))},
			}
			if _, err := cfg.Define(isa.OpDef{
				Name:           fmt.Sprintf("FB_%d_%d", j, v),
				Kind:           isa.OpKindSingle,
				Channel:        isa.ChanFlux,
				DurationCycles: isa.DefaultGate1QCycles,
				Unitary1:       u,
			}); err != nil {
				return nil, err
			}
		}
	}
	return cfg, nil
}

// iqpeProgram generates the estimation program. Ancilla is physical
// qubit 0, the eigenstate target physical qubit 2; R10 accumulates the
// measured bits (most recent bit most significant), R11/R12 are
// scratch, R1 holds the constant 1.
func iqpeProgram(bits int) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("SMIS S0, {0}        # ancilla")
	w("SMIS S2, {2}        # eigenstate target")
	w("SMIT T0, {(0, 2)}")
	w("LDI R1, 1")
	w("LDI R10, 0          # feedback accumulator")
	w("QWAIT 100")
	w("X S2                # prepare the |1> eigenstate")
	for j := 1; j <= bits; j++ {
		k := bits - j
		w("# --- iteration %d: extract bit %d (CU^%d) ---", j, bits-j+1, 1<<uint(k))
		w("2, H S0")
		w("CU_P%d T0", k)
		if j > 1 {
			// Classically selected feedback rotation: branch on the
			// accumulator over all 2^(j-1) histories.
			for v := 0; v < 1<<uint(j-1); v++ {
				w("LDI R11, %d", v)
				w("CMP R10, R11")
				w("BR EQ, fb_%d_%d", j, v)
			}
			w("BR ALWAYS, fb_done_%d", j)
			for v := 0; v < 1<<uint(j-1); v++ {
				w("fb_%d_%d:", j, v)
				w("2, FB_%d_%d S0", j, v)
				w("BR ALWAYS, fb_done_%d", j)
			}
			w("fb_done_%d:", j)
			w("1, H S0")
		} else {
			w("2, H S0")
		}
		w("MEASZ S0")
		w("QWAIT 50")
		w("FMR R12, Q0        # measured bit")
		if j < bits {
			// Accumulator: acc = bit<<(j-1) + acc, by doubling.
			for d := 0; d < j-1; d++ {
				w("ADD R12, R12, R12")
			}
			w("ADD R10, R10, R12")
			// Recycle the ancilla with fast-conditional active reset.
			w("QWAIT 10")
			w("C_X S0")
			w("QWAIT 5")
		} else {
			for d := 0; d < j-1; d++ {
				w("ADD R12, R12, R12")
			}
			w("ADD R10, R10, R12")
		}
	}
	// Publish the estimate through the shared data memory (the host
	// communication channel of Section 2.3.1).
	w("LDI R13, 0")
	w("ST R10, R13(0)")
	w("STOP")
	return b.String()
}

// RunIQPE executes the experiment.
func RunIQPE(opts IQPEOptions) (*IQPEResult, error) {
	if opts.Bits == 0 {
		opts.Bits = 3
	}
	if opts.Shots == 0 {
		opts.Shots = 200
	}
	if opts.PhaseNumerator < 0 || opts.PhaseNumerator >= 1<<uint(opts.Bits) {
		return nil, fmt.Errorf("experiments: phase numerator %d outside [0, 2^%d)", opts.PhaseNumerator, opts.Bits)
	}
	cfg, err := iqpeConfig(opts.Bits, opts.PhaseNumerator)
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
	src := iqpeProgram(opts.Bits)
	if err := load(m, src); err != nil {
		return nil, err
	}
	res := &IQPEResult{
		Bits:           opts.Bits,
		PhaseNumerator: opts.PhaseNumerator,
		Histogram:      map[int]int{},
		Program:        src,
	}
	hits := 0
	for shot := 0; shot < opts.Shots; shot++ {
		m.Reset()
		if err := m.Run(); err != nil {
			return nil, fmt.Errorf("iqpe shot %d: %w", shot, err)
		}
		// The program publishes the estimate in data memory word 0; the
		// bits arrive LSB-first so the accumulator already holds the
		// numerator.
		v, err := m.ReadWord(0)
		if err != nil {
			continue
		}
		est := int(v)
		res.Histogram[est]++
		if est == opts.PhaseNumerator {
			hits++
		}
	}
	res.SuccessRate = float64(hits) / float64(opts.Shots)
	return res, nil
}
