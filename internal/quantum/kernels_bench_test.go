package quantum

import (
	"math/rand"
	"testing"
)

// Per-kernel benchmarks: each specialized state-vector path against
// the dense matrix multiply it replaces, on a register large enough
// for the loop structure to matter.
const benchQubits = 12

func benchState() *State {
	s := NewState(benchQubits, rand.New(rand.NewSource(1)))
	s.Apply1(Hadamard, 0) // leave |+> ⊗ |0...0> so amplitudes are non-trivial
	return s
}

func BenchmarkKernelGeneric1(b *testing.B) {
	s := benchState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Apply1(GateX90, i%benchQubits)
	}
}

func BenchmarkKernelDiag(b *testing.B) {
	s := benchState()
	sp := ClassifyGate1(TGate)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ApplySpec1(&sp, i%benchQubits)
	}
}

func BenchmarkKernelDiagDense(b *testing.B) {
	s := benchState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Apply1(TGate, i%benchQubits)
	}
}

func BenchmarkKernelAntiDiag(b *testing.B) {
	s := benchState()
	sp := ClassifyGate1(PauliX)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ApplySpec1(&sp, i%benchQubits)
	}
}

func BenchmarkKernelHadamard(b *testing.B) {
	s := benchState()
	sp := ClassifyGate1(Hadamard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ApplySpec1(&sp, i%benchQubits)
	}
}

func BenchmarkKernelCPhase(b *testing.B) {
	s := benchState()
	sp := ClassifyGate2(CZ)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ApplySpec2(&sp, i%(benchQubits-1), benchQubits-1)
	}
}

func BenchmarkKernelCPhaseDense(b *testing.B) {
	s := benchState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Apply2(CZ, i%(benchQubits-1), benchQubits-1)
	}
}

func BenchmarkKernelPerm(b *testing.B) {
	s := benchState()
	sp := ClassifyGate2(CNOT)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ApplySpec2(&sp, i%(benchQubits-1), benchQubits-1)
	}
}

func BenchmarkKernelPermDense(b *testing.B) {
	s := benchState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Apply2(CNOT, i%(benchQubits-1), benchQubits-1)
	}
}

// chainQubits is the register width of the fused rz_chain16 program,
// whose 2^16-amplitude dense sites and measurements dominate its shots.
const chainQubits = 16

// BenchmarkKernelGeneric2 is the dense 4×4 of a fused CZ+1q site on the
// pairs (2k+1, 2k) such a chain fuses.
func BenchmarkKernelGeneric2(b *testing.B) {
	s := NewState(chainQubits, rand.New(rand.NewSource(1)))
	s.Apply1(Hadamard, 0)
	u := CZ.Mul(Kron(GateX90, GateX90))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % (chainQubits / 2)
		s.Apply2(u, 2*k+1, 2*k)
	}
}

// BenchmarkKernelMeasure is one projective measurement (the Prob1 scan
// plus the collapse) on a 16-qubit register.
func BenchmarkKernelMeasure(b *testing.B) {
	s := NewState(chainQubits, rand.New(rand.NewSource(1)))
	for q := 0; q < chainQubits; q++ {
		s.Apply1(Hadamard, q)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Measure(i % chainQubits)
	}
}

func BenchmarkKernelResetQubit(b *testing.B) {
	s := benchState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := i % benchQubits
		s.Apply1(Hadamard, q)
		s.ResetQubit(q)
	}
}
