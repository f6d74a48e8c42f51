// Package benchmarks generates the three workloads of the Section 4.2
// design-space exploration:
//
//   - RB: randomized benchmarking — 4096 single-qubit Cliffords per qubit
//     decomposed into x/y rotations, all qubits running back-to-back.
//   - IM: an Ising-model circuit — a parallel algorithm on 7 qubits with
//     fewer than 1% two-qubit gates.
//   - SR: Grover's algorithm computing a square root on 8 qubits — a
//     relatively sequential algorithm with roughly 39% two-qubit gates.
//
// The paper compiles IM and SR with ScaffCC. ScaffCC and its benchmark
// binaries are not reproducible offline, so these generators synthesize
// circuits matching the gate mixes and parallelism profiles the paper
// reports (see DESIGN.md, substitution table); every Fig. 7 comparison
// depends only on those statistics.
package benchmarks

import (
	"fmt"
	"math/rand"

	"eqasm/internal/ir"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// RB generates the randomized-benchmarking workload: cliffords random
// Cliffords per qubit, each decomposed to primitive x/y rotations
// (1.875 primitives per Clifford on average), running on all qubits
// simultaneously with no idling.
func RB(numQubits, cliffords int, seed int64) *ir.Program {
	rng := rand.New(rand.NewSource(seed))
	c := &ir.Program{Name: "RB", NumQubits: numQubits}
	for q := 0; q < numQubits; q++ {
		seq := quantum.NewRBSequence(cliffords-1, rng) // +1 recovery = cliffords total
		for _, name := range seq.Primitives() {
			c.Gates = append(c.Gates, ir.Gate{Name: name, Qubits: []int{q}})
		}
	}
	return c
}

// IMConfig tunes the Ising-model generator.
type IMConfig struct {
	NumQubits int
	Steps     int
	// AnglesPerAxis quantizes the per-site rotation angles into this many
	// distinct operations per axis; the overlap between qubits at a
	// timing point is what SOMQ exploits.
	AnglesPerAxis int
	// AngleDurations maps each angle index to its pulse duration in
	// cycles. Site-dependent rotation angles are realised as pulses of
	// different calibrated lengths, which desynchronizes the per-qubit
	// gate streams exactly as the paper's compiled IM exhibits (about 2.6
	// gate starts per timing point rather than one per qubit).
	AngleDurations []int
	// CZRate is the per-step probability of one nearest-neighbour CZ
	// (tuned so two-qubit gates stay below 1% of all gates).
	CZRate float64
	Seed   int64
}

// DefaultIM matches the paper's description: 7 qubits, <1% two-qubit
// gates, substantial parallelism, and the Fig. 7 profile (~2.6 gates per
// timing point, intervals of one cycle, ~20-25% same-operation overlap
// for SOMQ).
func DefaultIM() IMConfig {
	return IMConfig{
		NumQubits:      7,
		Steps:          300,
		AnglesPerAxis:  2,
		AngleDurations: []int{1, 4},
		CZRate:         0.1,
		Seed:           7,
	}
}

// IM generates the Ising-model circuit: trotterized evolution with
// transverse-field x rotations and site-dependent z rotations of varying
// pulse length, plus rare nearest-neighbour entangling gates.
func IM(cfg IMConfig) *ir.Program {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &ir.Program{Name: "IM", NumQubits: cfg.NumQubits}
	layer := func(axis string) {
		for q := 0; q < cfg.NumQubits; q++ {
			k := rng.Intn(cfg.AnglesPerAxis)
			dur := 1
			if k < len(cfg.AngleDurations) {
				dur = cfg.AngleDurations[k]
			}
			c.Gates = append(c.Gates, ir.Gate{
				Name:           fmt.Sprintf("R%s%d", axis, k),
				Qubits:         []int{q},
				DurationCycles: dur,
			})
		}
	}
	for s := 0; s < cfg.Steps; s++ {
		layer("X")
		layer("Z")
		if rng.Float64() < cfg.CZRate {
			a := rng.Intn(cfg.NumQubits - 1)
			c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{a, a + 1}})
		}
	}
	return c
}

// SRConfig tunes the square-root (Grover) generator.
type SRConfig struct {
	// SearchQubits is the register Grover searches over; ancillas for the
	// Toffoli ladder bring the total to SearchQubits + (SearchQubits-2).
	SearchQubits int
	Iterations   int
	Seed         int64
}

// DefaultSR matches the paper: 8 qubits total (5 search + 3 ancilla),
// ~39% two-qubit gates, relatively sequential.
func DefaultSR() SRConfig {
	return SRConfig{SearchQubits: 5, Iterations: 6, Seed: 11}
}

// QEC generates repeated surface-code error-syndrome extraction on the
// 17-qubit distance-3 chip: per cycle, Hadamards on all eight stabilizer
// ancillas, CZ interaction layers between each ancilla and its data
// neighbours, Hadamards again, and simultaneous measurement of every
// ancilla. Section 4.2 singles this workload out: "An application that
// would benefit significantly from SOMQ is quantum error correction,
// which requires performing well-patterned error syndrome measurements
// repeatedly presenting high parallelism."
func QEC(cycles int) *ir.Program {
	topo := topology.Surface17()
	c := &ir.Program{Name: "QEC", NumQubits: topo.NumQubits}
	ancillas := []int{9, 10, 11, 12, 13, 14, 15, 16}
	hAll := func() {
		for _, a := range ancillas {
			c.Gates = append(c.Gates, ir.Gate{Name: "H", Qubits: []int{a}})
		}
	}
	// Edge-colour the ancilla-data couplings so each interaction layer
	// touches every qubit at most once (the standard surface-code
	// interaction dance; greedy colouring suffices on this graph).
	type coupling struct{ a, d int }
	var colourOf map[coupling]int
	layers := 0
	{
		colourOf = map[coupling]int{}
		qubitColours := map[int]map[int]bool{}
		for _, a := range ancillas {
			for _, d := range topo.Neighbors(a) {
				col := 0
				for (qubitColours[a] != nil && qubitColours[a][col]) ||
					(qubitColours[d] != nil && qubitColours[d][col]) {
					col++
				}
				colourOf[coupling{a, d}] = col
				for _, q := range []int{a, d} {
					if qubitColours[q] == nil {
						qubitColours[q] = map[int]bool{}
					}
					qubitColours[q][col] = true
				}
				if col+1 > layers {
					layers = col + 1
				}
			}
		}
	}
	for cyc := 0; cyc < cycles; cyc++ {
		hAll()
		for col := 0; col < layers; col++ {
			for _, a := range ancillas {
				busy := false
				for _, d := range topo.Neighbors(a) {
					if colourOf[coupling{a, d}] == col {
						c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{a, d}})
						busy = true
					}
				}
				if !busy {
					// Idle padding keeps the ancillas in lockstep through
					// the dance, as the hardware schedule does.
					c.Gates = append(c.Gates, ir.Gate{Name: "I", Qubits: []int{a},
						DurationCycles: ir.DefaultTwoCycles})
				}
			}
		}
		hAll()
		for _, a := range ancillas {
			c.Gates = append(c.Gates, ir.Gate{Name: "MEASZ",
				Qubits: []int{a}, Measure: true})
		}
	}
	return c
}

// SR generates a Grover search circuit in the style of ScaffCC's
// square-root benchmark: Hadamard initialisation, then iterations of a
// phase oracle and the diffusion operator, with multi-controlled-Z
// implemented through a Toffoli ladder over ancilla qubits. Toffolis use
// the standard 15-gate {H, T, Tdg, CNOT} decomposition (6 CNOTs and 9
// single-qubit gates, yielding the ~39%-sequential mix).
func SR(cfg SRConfig) *ir.Program {
	n := cfg.SearchQubits
	anc := n - 2
	c := &ir.Program{Name: "SR", NumQubits: n + anc}
	rng := rand.New(rand.NewSource(cfg.Seed))

	h := func(q int) { c.Gates = append(c.Gates, ir.Gate{Name: "H", Qubits: []int{q}}) }
	x := func(q int) { c.Gates = append(c.Gates, ir.Gate{Name: "X", Qubits: []int{q}}) }
	t := func(q int) { c.Gates = append(c.Gates, ir.Gate{Name: "T", Qubits: []int{q}}) }
	tdg := func(q int) { c.Gates = append(c.Gates, ir.Gate{Name: "Tdg", Qubits: []int{q}}) }
	cnot := func(a, b int) {
		c.Gates = append(c.Gates, ir.Gate{Name: "CNOT", Qubits: []int{a, b}})
	}
	toffoli := func(a, b, tq int) {
		h(tq)
		cnot(b, tq)
		tdg(tq)
		cnot(a, tq)
		t(tq)
		cnot(b, tq)
		tdg(tq)
		cnot(a, tq)
		t(b)
		t(tq)
		h(tq)
		cnot(a, b)
		t(a)
		tdg(b)
		cnot(a, b)
	}
	// Multi-controlled Z over the n search qubits via a Toffoli ladder
	// into ancillas n..n+anc-1, a CZ at the top, then uncompute.
	mcz := func() {
		toffoli(0, 1, n)
		for k := 0; k < anc-1; k++ {
			toffoli(k+2, n+k, n+k+1)
		}
		c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{n - 1, n + anc - 1}})
		for k := anc - 2; k >= 0; k-- {
			toffoli(k+2, n+k, n+k+1)
		}
		toffoli(0, 1, n)
	}

	for q := 0; q < n; q++ {
		h(q)
	}
	for it := 0; it < cfg.Iterations; it++ {
		// Oracle: mark a random element by conjugating MCZ with X gates.
		target := rng.Intn(1 << uint(n))
		for q := 0; q < n; q++ {
			if target>>uint(q)&1 == 0 {
				x(q)
			}
		}
		mcz()
		for q := 0; q < n; q++ {
			if target>>uint(q)&1 == 0 {
				x(q)
			}
		}
		// Diffusion.
		for q := 0; q < n; q++ {
			h(q)
			x(q)
		}
		mcz()
		for q := 0; q < n; q++ {
			x(q)
			h(q)
		}
	}
	for q := 0; q < n; q++ {
		c.Gates = append(c.Gates, ir.Gate{Name: "MEASZ", Qubits: []int{q}, Measure: true})
	}
	return c
}
