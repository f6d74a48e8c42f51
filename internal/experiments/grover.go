package experiments

import (
	"fmt"
	"math"
	"strings"

	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

// GroverOptions configures the two-qubit Grover search of Section 5.
type GroverOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	// Marked is the searched element (0-3); bit 0 lives on physical
	// qubit 0, bit 1 on physical qubit 2.
	Marked int
	// ShotsPerSetting is the tomography sample count per basis setting.
	ShotsPerSetting int
}

// GroverResult reports the algorithm outcome.
type GroverResult struct {
	Marked int
	// SuccessProb is the readout-corrected probability of measuring the
	// marked element directly.
	SuccessProb float64
	// Fidelity is the algorithmic fidelity from maximum-likelihood state
	// tomography, corrected for readout infidelity (the paper reports
	// 85.6%, limited by the CZ gate).
	Fidelity float64
}

// groverProgram builds the two-qubit Grover eQASM with optional
// tomography pre-rotations (one of "I", "Ym90", "X90" per qubit). Each
// timing point's pre-interval equals the previous gate's duration (1
// cycle for single-qubit gates, 2 for CZ), so pulses never overlap.
func groverProgram(marked int, preA, preB string) string {
	type step struct {
		line   string
		cycles int
	}
	var steps []step
	gate1 := func(line string) { steps = append(steps, step{line, 1}) }
	cz := func() { steps = append(steps, step{"CZ T0", 2}) }

	gate1("H S7")
	// Oracle: mark |marked> with a CZ conjugated by X on the zero bits.
	xMask := func() {
		switch {
		case marked == 0:
			gate1("X S7")
		case marked == 1:
			gate1("X S2")
		case marked == 2:
			gate1("X S0")
		}
	}
	xMask()
	cz()
	xMask()
	// Diffusion operator: H X CZ X H.
	gate1("H S7")
	gate1("X S7")
	cz()
	gate1("X S7")
	gate1("H S7")
	// Tomography pre-rotations.
	switch {
	case preA != "I" && preA == preB:
		gate1(preA + " S7")
	default:
		if preA != "I" {
			gate1(preA + " S0")
		}
		if preB != "I" {
			gate1(preB + " S2")
		}
	}
	steps = append(steps, step{"MEASZ S7", 15})

	var b strings.Builder
	b.WriteString("SMIS S0, {0}\n")
	b.WriteString("SMIS S2, {2}\n")
	b.WriteString("SMIS S7, {0, 2}\n")
	b.WriteString("SMIT T0, {(2, 0)}\n")
	b.WriteString("QWAIT 10000\n")
	pi := 0
	for _, s := range steps {
		fmt.Fprintf(&b, "%d, %s\n", pi, s.line)
		pi = s.cycles
	}
	b.WriteString("QWAIT 50\n")
	b.WriteString("STOP\n")
	return b.String()
}

// basisPreRotation maps a Pauli basis to its pre-rotation mnemonic
// (U† Z U = P with the configured gates).
func basisPreRotation(basis byte) string {
	switch basis {
	case 'X':
		return "Ym90"
	case 'Y':
		return "X90"
	default:
		return "I"
	}
}

// RunGrover executes the two-qubit Grover search and reconstructs the
// final state by MLE tomography over the nine two-qubit Pauli bases.
func RunGrover(opts GroverOptions) (*GroverResult, error) {
	if opts.ShotsPerSetting == 0 {
		opts.ShotsPerSetting = 1500
	}
	if opts.Marked < 0 || opts.Marked > 3 {
		return nil, fmt.Errorf("experiments: marked element %d outside 0-3", opts.Marked)
	}
	m, err := newMachine(microarch.Config{
		Noise: opts.Noise,
		Seed:  opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	e := opts.Noise.ReadoutError
	expect := map[string][]float64{}
	bases := []byte{'X', 'Y', 'Z'}
	var successRaw float64
	for _, ba := range bases {
		for _, bb := range bases {
			src := groverProgram(opts.Marked, basisPreRotation(ba), basisPreRotation(bb))
			if err := load(m, src); err != nil {
				return nil, err
			}
			var outcomes []int
			for shot := 0; shot < opts.ShotsPerSetting; shot++ {
				m.Reset()
				if err := m.Run(); err != nil {
					return nil, fmt.Errorf("grover shot %d: %w", shot, err)
				}
				bits := 0
				for _, r := range m.Measurements() {
					switch r.Qubit {
					case 0:
						bits |= r.Result
					case 2:
						bits |= r.Result << 1
					}
				}
				outcomes = append(outcomes, bits)
			}
			// Each setting estimates three Pauli strings (logical qubit 0
			// = physical 0, logical 1 = physical 2).
			add := func(labels string, corr float64) {
				v := quantum.ExpectationFromCounts([]byte(labels), outcomes) / corr
				expect[pauliKey(labels, ba, bb)] = append(expect[pauliKey(labels, ba, bb)], v)
			}
			add("ZZ", (1-2*e)*(1-2*e))
			add("ZI", 1-2*e)
			add("IZ", 1-2*e)
			if ba == 'Z' && bb == 'Z' {
				var hist [4]float64
				for _, o := range outcomes {
					hist[o]++
				}
				for i := range hist {
					hist[i] /= float64(len(outcomes))
				}
				successRaw = ReadoutCorrect2Q(hist, e)[opts.Marked]
			}
		}
	}
	final := map[string]float64{}
	for k, vs := range expect {
		var s float64
		for _, v := range vs {
			s += v
		}
		final[k] = clamp(s/float64(len(vs)), -1, 1)
	}
	rho := quantum.MLEProject(quantum.LinearInversion(2, final))
	psi := make([]complex128, 4)
	psi[opts.Marked] = 1
	res := &GroverResult{
		Marked:      opts.Marked,
		Fidelity:    quantum.FidelityPureRho(rho, psi),
		SuccessProb: successRaw,
	}
	return res, nil
}

// GroverBudget attributes the Grover infidelity to its noise sources by
// re-running the experiment with each mechanism disabled — the
// quantitative form of Section 5's "this fidelity is limited by the CZ
// gate".
type GroverBudget struct {
	Full        float64
	NoCZError   float64
	NoReadout   float64
	NoDecoher   float64
	Ideal       float64
	CZDominates bool
}

// RunGroverBudget measures the error budget for one marked state.
func RunGroverBudget(base quantum.NoiseModel, seed int64, marked int) (*GroverBudget, error) {
	run := func(n quantum.NoiseModel) (float64, error) {
		r, err := RunGrover(GroverOptions{Noise: n, Seed: seed, Marked: marked, ShotsPerSetting: 1200})
		if err != nil {
			return 0, err
		}
		return r.Fidelity, nil
	}
	b := &GroverBudget{}
	var err error
	if b.Full, err = run(base); err != nil {
		return nil, err
	}
	noCZ := base
	noCZ.Gate2QError = 0
	if b.NoCZError, err = run(noCZ); err != nil {
		return nil, err
	}
	noRO := base
	noRO.ReadoutError = 0
	if b.NoReadout, err = run(noRO); err != nil {
		return nil, err
	}
	noT := base
	noT.T1Ns, noT.T2Ns = 0, 0
	if b.NoDecoher, err = run(noT); err != nil {
		return nil, err
	}
	if b.Ideal, err = run(quantum.Ideal()); err != nil {
		return nil, err
	}
	czGain := b.NoCZError - b.Full
	b.CZDominates = czGain > (b.NoReadout-b.Full) && czGain > (b.NoDecoher-b.Full)
	return b, nil
}

// pauliKey translates a measured Z-pattern into the underlying Pauli
// string given the basis setting: a 'Z' at logical position i measures
// the setting's basis on that qubit, an 'I' measures nothing.
func pauliKey(zPattern string, ba, bb byte) string {
	out := []byte{'I', 'I'}
	if zPattern[0] == 'Z' {
		out[0] = ba
	}
	if zPattern[1] == 'Z' {
		out[1] = bb
	}
	return string(out)
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
