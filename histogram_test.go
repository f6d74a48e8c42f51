package eqasm_test

import (
	"context"
	"slices"
	"testing"

	"eqasm"
)

// TestHistogramKeys pins the histogram key rules: a key holds the last
// result of every measured qubit, qubits ascending, and a shot with no
// measurement counts under the empty key.
func TestHistogramKeys(t *testing.T) {
	sim, err := eqasm.NewSimulator(eqasm.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		src    string
		hist   map[string]int
		qubits []int
	}{
		{
			// Qubit 2 reads 1; qubit 0 reads 0, is flipped, then reads 1:
			// the key is "11" only if the last result wins.
			name: "last result wins",
			src: `
SMIS S0, {0}
SMIS S2, {2}
QWAIT 10
X S2
MEASZ S2
MEASZ S0
QWAIT 50
X S0
MEASZ S0
QWAIT 50
STOP`,
			hist:   map[string]int{"11": 20},
			qubits: []int{0, 2},
		},
		{
			name: "no measurement",
			src: `
SMIS S0, {0}
QWAIT 10
X S0
STOP`,
			hist: map[string]int{"": 20},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := eqasm.Assemble(tc.src, eqasm.WithTopology("twoqubit"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(context.Background(), p, eqasm.RunOptions{Shots: 20, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Histogram) != len(tc.hist) {
				t.Fatalf("histogram %v, want %v", res.Histogram, tc.hist)
			}
			for k, n := range tc.hist {
				if res.Histogram[k] != n {
					t.Fatalf("histogram %v, want %v", res.Histogram, tc.hist)
				}
			}
			if !slices.Equal(res.Qubits, tc.qubits) {
				t.Fatalf("qubits %v, want %v", res.Qubits, tc.qubits)
			}
		})
	}
}
