package experiments

import (
	"fmt"

	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// Quantum teleportation, the second classic "quantum data, classical
// control" workload the paper's introduction cites. On the Surface-17
// chip, the state of data qubit 0 teleports to data qubit 1 through
// stabilizer ancilla 9 (coupled to both): a Bell pair links 9 and 1, a
// Bell measurement of (0, 9) produces two classical bits, and CFC applies
// the X and Z corrections those bits dictate. Up to the corrections the
// output is random; with them it is deterministic — the experiment
// verifies exactly that.

// TeleportOptions configures the experiment.
type TeleportOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	// PrepareName is the configured operation preparing the state to
	// teleport on qubit 0 (default "X90").
	PrepareName string
	// InverseName undoes the preparation on the destination; applying it
	// after a successful teleport returns the destination to |0>
	// (default "Xm90").
	InverseName string
	Shots       int
}

// TeleportResult reports teleportation outcomes.
type TeleportResult struct {
	Shots int
	// SuccessProb is the probability the destination qubit, after the
	// inverse preparation, reads |0> — 1.0 for perfect teleportation.
	SuccessProb float64
	// CorrectionHistogram counts the four (mz, mx) Bell-measurement
	// outcomes; teleportation must succeed for every branch.
	CorrectionHistogram map[int]int
	// PerBranchSuccess maps each Bell outcome to its success rate.
	PerBranchSuccess map[int]float64
}

// teleportProgram builds the eQASM. S registers: S0={0} source, S1={9}
// ancilla, S2={1} destination; T0=(9,0)... couplings: (9,0) and (9,1).
func teleportProgram(prep, inverse string) string {
	return fmt.Sprintf(`
SMIS S0, {0}          # source data qubit
SMIS S1, {9}          # ancilla
SMIS S2, {1}          # destination data qubit
SMIS S3, {0, 9}       # Bell measurement pair
SMIT T0, {(9, 0)}
SMIT T1, {(9, 1)}
LDI R0, 1
QWAIT 100
%s S0                 # prepare the state to teleport
# Bell pair between ancilla 9 and destination 1: H(9); CNOT(9->1).
0, H S1
H S2
CZ T1
2, H S2
# Bell measurement of (0, 9): CNOT(0->9); H(0); measure both.
H S1
CZ T0
2, H S1
0, H S0
MEASZ S3
QWAIT 40
# Corrections on the destination: X if the ancilla read 1, Z if the
# source read 1 (comprehensive feedback control, two independent bits).
FMR R1, Q9
CMP R1, R0
BR NE, no_x
X S2
no_x:
FMR R2, Q0
CMP R2, R0
BR NE, no_z
QWAIT 5
0, Z S2
no_z:
QWAIT 10
%s S2                 # undo the preparation: success iff |0>
MEASZ S2
QWAIT 50
STOP
`, prep, inverse)
}

// RunTeleport executes the teleportation experiment.
func RunTeleport(opts TeleportOptions) (*TeleportResult, error) {
	if opts.PrepareName == "" {
		opts.PrepareName = "X90"
		opts.InverseName = "Xm90"
	}
	if opts.InverseName == "" {
		return nil, fmt.Errorf("experiments: teleport needs the inverse of %q", opts.PrepareName)
	}
	if opts.Shots == 0 {
		opts.Shots = 400
	}
	m, err := newMachine(microarch.Config{
		Topo:  topology.Surface17(),
		Inst:  isa.Surface17Instantiation(),
		Noise: opts.Noise,
		Seed:  opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := load(m, teleportProgram(opts.PrepareName, opts.InverseName)); err != nil {
		return nil, err
	}
	res := &TeleportResult{
		Shots:               opts.Shots,
		CorrectionHistogram: map[int]int{},
	}
	successes := map[int]int{}
	total := 0
	for shot := 0; shot < opts.Shots; shot++ {
		m.Reset()
		if err := m.Run(); err != nil {
			return nil, fmt.Errorf("teleport shot %d: %w", shot, err)
		}
		var mz, mx, final, haveFinal = -1, -1, -1, false
		for _, r := range m.Measurements() {
			switch r.Qubit {
			case 0:
				mz = r.Result
			case 9:
				mx = r.Result
			case 1:
				final = r.Result
				haveFinal = true
			}
		}
		if mz < 0 || mx < 0 || !haveFinal {
			continue
		}
		branch := mz<<1 | mx
		res.CorrectionHistogram[branch]++
		if final == 0 {
			successes[branch]++
		}
		total++
	}
	if total == 0 {
		return nil, fmt.Errorf("experiments: teleport produced no complete shots")
	}
	res.PerBranchSuccess = map[int]float64{}
	ok := 0
	for branch, n := range res.CorrectionHistogram {
		ok += successes[branch]
		res.PerBranchSuccess[branch] = float64(successes[branch]) / float64(n)
	}
	res.SuccessProb = float64(ok) / float64(total)
	return res, nil
}
