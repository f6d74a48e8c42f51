package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestClassifyGate1(t *testing.T) {
	cases := []struct {
		name string
		u    Matrix2
		want Gate1Kind
	}{
		{"Hadamard", Hadamard, Gate1Hadamard},
		{"PauliZ", PauliZ, Gate1Diag},
		{"S", SGate, Gate1Diag},
		{"T", TGate, Gate1Diag},
		{"RZ90", Rotation(AxisZ, math.Pi/2), Gate1Diag},
		{"Identity", Identity, Gate1Diag},
		{"PauliX", PauliX, Gate1AntiDiag},
		{"PauliY", PauliY, Gate1AntiDiag},
		// The π x-rotation's diagonal holds cos(π/2) ≈ 6.1e-17, not an
		// exact zero: classification must stay generic so kernel
		// results remain bit-identical to the dense multiply.
		{"GateX_rotation", GateX, Gate1Generic},
		{"GateX90", GateX90, Gate1Generic},
	}
	for _, c := range cases {
		if got := ClassifyGate1(c.u).Kind; got != c.want {
			t.Errorf("%s classified %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyGate2(t *testing.T) {
	swap := Matrix4{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	}
	iswap := Matrix4{
		{1, 0, 0, 0},
		{0, 0, 1i, 0},
		{0, 1i, 0, 0},
		{0, 0, 0, 1},
	}
	diag := Matrix4{
		{1i, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, -1i},
	}
	dense := Matrix4{
		{1, 1, 0, 0},
		{1, -1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	cases := []struct {
		name string
		u    Matrix4
		want Gate2Kind
	}{
		{"CZ", CZ, Gate2CPhase},
		{"CNOT", CNOT, Gate2Perm},
		{"SWAP", swap, Gate2Perm},
		{"iSWAP", iswap, Gate2Perm},
		{"diag", diag, Gate2Diag},
		{"dense", dense, Gate2Generic},
	}
	for _, c := range cases {
		if got := ClassifyGate2(c.u).Kind; got != c.want {
			t.Errorf("%s classified %v, want %v", c.name, got, c.want)
		}
	}
}

// randomState returns a normalised random state on n qubits.
func randomState(n int, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	s := NewState(n, rng)
	for i := range s.amp {
		s.amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	s.renormalize()
	return s
}

func statesAgree(a, b *State, tol float64) bool {
	for i := range a.amp {
		if cmplx.Abs(a.amp[i]-b.amp[i]) > tol {
			return false
		}
	}
	return true
}

// TestApplySpec1MatchesGeneric verifies every single-qubit kernel
// against the dense Apply1 on random states: the specialized paths
// must agree exactly (they perform the same floating-point operations
// on the non-zero terms).
func TestApplySpec1MatchesGeneric(t *testing.T) {
	gates := map[string]Matrix2{
		"Hadamard": Hadamard,
		"PauliZ":   PauliZ,
		"S":        SGate,
		"T":        TGate,
		"RZ":       Rotation(AxisZ, 0.7),
		"PauliX":   PauliX,
		"PauliY":   PauliY,
		"GateX90":  GateX90,
	}
	for name, u := range gates {
		sp := ClassifyGate1(u)
		for q := 0; q < 5; q++ {
			ref := randomState(5, 11)
			got := ref.Clone()
			ref.Apply1(u, q)
			got.ApplySpec1(&sp, q)
			if !statesAgree(ref, got, 0) {
				t.Errorf("%s on qubit %d: kernel diverges from dense multiply", name, q)
			}
		}
	}
}

// TestApplySpec2MatchesGeneric verifies every two-qubit kernel against
// the dense Apply2, over both qubit orderings.
func TestApplySpec2MatchesGeneric(t *testing.T) {
	swap := Matrix4{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	}
	gates := map[string]Matrix4{"CZ": CZ, "CNOT": CNOT, "SWAP": swap}
	for name, u := range gates {
		sp := ClassifyGate2(u)
		for _, pair := range [][2]int{{0, 1}, {1, 0}, {0, 4}, {4, 2}, {3, 1}} {
			ref := randomState(5, 23)
			got := ref.Clone()
			ref.Apply2(u, pair[0], pair[1])
			got.ApplySpec2(&sp, pair[0], pair[1])
			if !statesAgree(ref, got, 0) {
				t.Errorf("%s on (%d,%d): kernel diverges from dense multiply", name, pair[0], pair[1])
			}
		}
	}
}

// TestResetQubitMatchesMeasureThenX pins the fused reset to the
// measure-then-X formulation it replaced: same random stream, same
// resulting state.
func TestResetQubitMatchesMeasureThenX(t *testing.T) {
	for q := 0; q < 4; q++ {
		a := randomState(4, int64(40+q))
		b := a.Clone()
		b.SetRNG(rand.New(rand.NewSource(99)))
		a.SetRNG(rand.New(rand.NewSource(99)))
		a.ResetQubit(q)
		if bit := b.Measure(q); bit == 1 {
			b.Apply1(PauliX, q)
		}
		if !statesAgree(a, b, 0) {
			t.Fatalf("fused reset diverges from measure-then-X on qubit %d", q)
		}
		if p := a.Prob1(q); p != 0 {
			t.Fatalf("qubit %d not reset: P(1) = %v", q, p)
		}
	}
}

func TestMeasureCollapsesHalf(t *testing.T) {
	s := randomState(3, 5)
	bit := s.Measure(1)
	mask := 1 << 1
	for i, a := range s.amp {
		has1 := i&mask != 0
		if has1 != (bit == 1) && a != 0 {
			t.Fatalf("amplitude %d survived collapse to %d", i, bit)
		}
	}
	if n := s.Norm(); math.Abs(n-1) > 1e-12 {
		t.Fatalf("collapsed state norm %v", n)
	}
}
