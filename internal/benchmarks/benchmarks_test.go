package benchmarks

import (
	"math"
	"testing"

	"eqasm/internal/compiler"
	"eqasm/internal/ir"
)

// schedule validates p, schedules it ASAP and packs its timing points
// (counting mode, no SOMQ), in place.
func schedule(t *testing.T, p *ir.Program) *ir.Program {
	t.Helper()
	pl := (&compiler.Pipeline{}).Append(compiler.PassValidate(), compiler.PassScheduleASAP(),
		compiler.PassPack(nil, nil, false))
	if err := pl.Run(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// gatesPerPoint is the mean number of gates per timing point of a
// scheduled program.
func gatesPerPoint(t *testing.T, p *ir.Program) float64 {
	t.Helper()
	r, err := compiler.Count(p, compiler.Config1)
	if err != nil {
		t.Fatal(err)
	}
	return r.GatesPerPoint()
}

func TestRBShape(t *testing.T) {
	c := RB(7, 256, 1)
	if c.NumQubits != 7 {
		t.Fatalf("qubits = %d", c.NumQubits)
	}
	st := compiler.GateStats(c)
	if st.TwoQ != 0 {
		t.Fatalf("RB has %d two-qubit gates, want 0", st.TwoQ)
	}
	// ~1.875 primitives per Clifford.
	perClifford := float64(st.Total) / float64(7*256)
	if math.Abs(perClifford-1.875) > 0.1 {
		t.Fatalf("primitives per Clifford = %v", perClifford)
	}
	// Back-to-back execution: every interval is one cycle.
	s := schedule(t, c)
	for k := range compiler.IntervalHistogram(s) {
		if k != 1 {
			t.Fatalf("RB interval %d, want all 1", k)
		}
	}
	if p := gatesPerPoint(t, s); p < 6.5 || p > 7 {
		t.Fatalf("RB parallelism = %v, want ~7", p)
	}
}

func TestRBDeterministicBySeed(t *testing.T) {
	a := RB(2, 64, 5)
	b := RB(2, 64, 5)
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("same seed, different circuits")
	}
	for i := range a.Gates {
		if a.Gates[i].Name != b.Gates[i].Name {
			t.Fatal("same seed, different gates")
		}
	}
	c := RB(2, 64, 6)
	same := len(a.Gates) == len(c.Gates)
	if same {
		for i := range a.Gates {
			if a.Gates[i].Name != c.Gates[i].Name {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical circuits")
	}
}

// The paper's description: IM is a parallel 7-qubit algorithm with fewer
// than 1% two-qubit gates; its Fig. 7 profile implies ~2.6 gate starts
// per timing point with intervals of mostly one cycle.
func TestIMProfile(t *testing.T) {
	c := IM(DefaultIM())
	st := compiler.GateStats(c)
	if st.TwoQFrac >= 0.01 {
		t.Fatalf("IM two-qubit fraction = %.3f, want < 1%%", st.TwoQFrac)
	}
	s := schedule(t, c)
	if p := gatesPerPoint(t, s); p < 2.0 || p > 3.5 {
		t.Fatalf("IM parallelism = %.2f, want ~2.6", p)
	}
	ih := compiler.IntervalHistogram(s)
	ones := ih[1]
	total := 0
	for _, n := range ih {
		total += n
	}
	if frac := float64(ones) / float64(total); frac < 0.85 {
		t.Fatalf("IM interval-1 fraction = %.2f, want mostly 1-cycle intervals", frac)
	}
}

// SR: 8 qubits, ~39% two-qubit gates, relatively sequential.
func TestSRProfile(t *testing.T) {
	c := SR(DefaultSR())
	if c.NumQubits != 8 {
		t.Fatalf("SR qubits = %d, want 8", c.NumQubits)
	}
	st := compiler.GateStats(c)
	if st.TwoQFrac < 0.34 || st.TwoQFrac > 0.44 {
		t.Fatalf("SR two-qubit fraction = %.3f, want ~0.39", st.TwoQFrac)
	}
	s := schedule(t, c)
	if p := gatesPerPoint(t, s); p > 1.7 {
		t.Fatalf("SR parallelism = %.2f, want sequential (< 1.7)", p)
	}
}

func TestSRValidates(t *testing.T) {
	c := SR(SRConfig{SearchQubits: 4, Iterations: 2, Seed: 1})
	if err := compiler.PassValidate().Run(c); err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 6 {
		t.Fatalf("4 search qubits need 2 ancillas: got %d total", c.NumQubits)
	}
	st := compiler.GateStats(c)
	if st.Measures != 4 {
		t.Fatalf("measures = %d", st.Measures)
	}
}

func TestIMValidates(t *testing.T) {
	if err := compiler.PassValidate().Run(IM(DefaultIM())); err != nil {
		t.Fatal(err)
	}
}

// Section 4.2's QEC claim: error-syndrome extraction is the workload SOMQ
// helps most. The reduction must clearly exceed what SOMQ gives IM.
func TestQECSOMQBenefit(t *testing.T) {
	sQEC := schedule(t, QEC(20))
	reduction := func(s *ir.Program) float64 {
		plain, err1 := compiler.Count(s, compiler.Config5.WithWidth(1))
		somq, err2 := compiler.Count(s, compiler.Config9.WithWidth(1))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		return 1 - float64(somq.Instructions)/float64(plain.Instructions)
	}
	rQEC := reduction(sQEC)
	if rQEC < 0.5 {
		t.Fatalf("QEC SOMQ reduction = %.2f, want > 0.5 (highly patterned parallelism)", rQEC)
	}
	rIM := reduction(schedule(t, IM(DefaultIM())))
	if rQEC <= rIM {
		t.Fatalf("QEC SOMQ reduction %.2f should exceed IM's %.2f", rQEC, rIM)
	}
}

// The H layers and multiplexed ancilla measurement collapse to single
// SOMQ operations; CZ layers combine into multi-pair target registers.
func TestQECStructure(t *testing.T) {
	qec := QEC(1)
	st := compiler.GateStats(qec)
	if st.Measures != 8 {
		t.Fatalf("measures = %d, want 8 ancillas", st.Measures)
	}
	if st.TwoQ != 24 {
		t.Fatalf("CZ count = %d, want 24 (one per coupling)", st.TwoQ)
	}
	r, err := compiler.Count(schedule(t, qec), compiler.Config9.WithWidth(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.OpsPerBundle() < 1.2 {
		t.Fatalf("ops/bundle = %.2f, want dense packing", r.OpsPerBundle())
	}
}
