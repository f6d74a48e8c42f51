package experiments

import (
	"fmt"
	"math"
	"strings"

	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

// AllXYPairs is the standard 21-pair AllXY sequence. Pairs 1-5 leave the
// qubit in |0>, pairs 6-17 on the equator (F_|1> = 0.5), pairs 18-21 in
// |1>: the staircase of Fig. 11.
var AllXYPairs = [21][2]string{
	{"I", "I"}, {"X", "X"}, {"Y", "Y"}, {"X", "Y"}, {"Y", "X"},
	{"X90", "I"}, {"Y90", "I"}, {"X90", "Y90"}, {"Y90", "X90"}, {"X90", "Y"},
	{"Y90", "X"}, {"X", "Y90"}, {"Y", "X90"}, {"X90", "X"}, {"X", "X90"},
	{"Y90", "Y"}, {"Y", "Y90"},
	{"X", "I"}, {"Y", "I"}, {"X90", "X90"}, {"Y90", "Y90"},
}

// AllXYIdeal is the expected F_|1> for each pair index.
func AllXYIdeal(pair int) float64 {
	switch {
	case pair < 5:
		return 0
	case pair < 17:
		return 0.5
	default:
		return 1
	}
}

// AllXYOptions configures the two-qubit AllXY experiment.
type AllXYOptions struct {
	Noise quantum.NoiseModel
	Seed  int64
	// Shots per sequence point (per round).
	Shots int
	// Qubits are the two physical qubits (default 0 and 2, the
	// validation chip).
	Qubits [2]int
}

// AllXYPoint is one of the 42 points of the two-qubit AllXY result.
type AllXYPoint struct {
	Index int
	// PairA/PairB are the gate pairs applied to the first and second
	// qubit in this round (Section 5: each pair is repeated on the first
	// qubit while the entire sequence is repeated on the second).
	PairA, PairB int
	// F1 is the readout-corrected F_|1> per qubit.
	F1 [2]float64
	// Ideal is the expected staircase value per qubit.
	Ideal [2]float64
}

// AllXYResult is the Fig. 11 dataset.
type AllXYResult struct {
	Points []AllXYPoint
	// MaxDeviation is the largest |F1 - ideal| over all points and both
	// qubits.
	MaxDeviation float64
	// RMSDeviation is the root-mean-square deviation from the staircase.
	RMSDeviation float64
}

// allxyProgram builds one round's eQASM, following Fig. 3: 200 us
// initialisation, the two gates of each pair applied to both qubits
// simultaneously (shared operations become SOMQ masks, distinct ones VLIW
// slots), then simultaneous measurement.
func allxyProgram(qa, qb int, pa, pb [2]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SMIS S0, {%d}\n", qa)
	fmt.Fprintf(&b, "SMIS S2, {%d}\n", qb)
	fmt.Fprintf(&b, "SMIS S7, {%d, %d}\n", qa, qb)
	b.WriteString("QWAIT 10000\n")
	first := true
	for g := 0; g < 2; g++ {
		ga, gb := pa[g], pb[g]
		pi := 1
		if first {
			pi = 0
			first = false
		}
		if ga == gb {
			fmt.Fprintf(&b, "%d, %s S7\n", pi, ga) // SOMQ
		} else {
			fmt.Fprintf(&b, "%d, %s S0 | %s S2\n", pi, ga, gb) // VLIW
		}
	}
	b.WriteString("1, MEASZ S7\n")
	b.WriteString("QWAIT 50\n")
	b.WriteString("STOP\n")
	return b.String()
}

// RunAllXY executes the two-qubit AllXY experiment (Fig. 11).
func RunAllXY(opts AllXYOptions) (*AllXYResult, error) {
	if opts.Shots == 0 {
		opts.Shots = 400
	}
	if opts.Qubits == [2]int{} {
		opts.Qubits = [2]int{0, 2}
	}
	m, err := newMachine(microarch.Config{
		Noise:            opts.Noise,
		Seed:             opts.Seed,
		UseDensityMatrix: true,
	})
	if err != nil {
		return nil, err
	}
	res := &AllXYResult{}
	var sumSq float64
	for j := 0; j < 42; j++ {
		pairA := j / 2
		pairB := j % 21
		src := allxyProgram(opts.Qubits[0], opts.Qubits[1], AllXYPairs[pairA], AllXYPairs[pairB])
		if err := load(m, src); err != nil {
			return nil, fmt.Errorf("allxy round %d: %w", j, err)
		}
		var ones [2]int
		for shot := 0; shot < opts.Shots; shot++ {
			m.Reset()
			if err := m.Run(); err != nil {
				return nil, fmt.Errorf("allxy round %d shot %d: %w", j, shot, err)
			}
			for _, rec := range m.Measurements() {
				switch rec.Qubit {
				case opts.Qubits[0]:
					ones[0] += rec.Result
				case opts.Qubits[1]:
					ones[1] += rec.Result
				}
			}
		}
		pt := AllXYPoint{Index: j, PairA: pairA, PairB: pairB}
		pt.Ideal = [2]float64{AllXYIdeal(pairA), AllXYIdeal(pairB)}
		for q := 0; q < 2; q++ {
			raw := float64(ones[q]) / float64(opts.Shots)
			pt.F1[q] = ReadoutCorrect(raw, opts.Noise.ReadoutError)
			dev := math.Abs(pt.F1[q] - pt.Ideal[q])
			if dev > res.MaxDeviation {
				res.MaxDeviation = dev
			}
			sumSq += dev * dev
		}
		res.Points = append(res.Points, pt)
	}
	res.RMSDeviation = math.Sqrt(sumSq / float64(2*len(res.Points)))
	return res, nil
}

// Render formats the result as two aligned staircases.
func (r *AllXYResult) Render() string {
	var b strings.Builder
	b.WriteString("idx  pairA      pairB      F1(q0) ideal  F1(q2) ideal\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%3d  %-9s  %-9s  %.3f  %.2f   %.3f  %.2f\n",
			p.Index,
			AllXYPairs[p.PairA][0]+","+AllXYPairs[p.PairA][1],
			AllXYPairs[p.PairB][0]+","+AllXYPairs[p.PairB][1],
			p.F1[0], p.Ideal[0], p.F1[1], p.Ideal[1])
	}
	fmt.Fprintf(&b, "max deviation from staircase: %.3f, rms: %.3f\n", r.MaxDeviation, r.RMSDeviation)
	return b.String()
}
