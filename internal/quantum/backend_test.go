package quantum

import (
	"math"
	"math/rand"
	"testing"
)

func TestSVBackendBasicFlow(t *testing.T) {
	b := NewSVBackend(2, Ideal(), 1)
	if b.NumQubits() != 2 {
		t.Fatalf("NumQubits = %d", b.NumQubits())
	}
	b.Apply1(PauliX, 0, 20)
	if m := b.Measure(0, 300); m != 1 {
		t.Fatalf("measured %d, want 1", m)
	}
	b.Reset()
	if m := b.Measure(0, 300); m != 0 {
		t.Fatalf("after reset measured %d, want 0", m)
	}
}

func TestDMBackendBasicFlow(t *testing.T) {
	b := NewDMBackend(2, Ideal(), 1)
	b.Apply1(Hadamard, 0, 20)
	b.ApplyCZ(0, 1, 40)
	b.Apply1(Hadamard, 1, 20)
	if p := b.Prob1(0); math.Abs(p-0.5) > tol {
		t.Fatalf("P1 = %v, want 0.5", p)
	}
}

func TestReadoutErrorStatistics(t *testing.T) {
	const e = 0.1
	b := NewSVBackend(1, NoiseModel{ReadoutError: e}, 7)
	const shots = 20000
	wrong := 0
	for i := 0; i < shots; i++ {
		b.Reset()
		wrong += b.Measure(0, 300) // true state is |0>; any 1 is assignment error
	}
	got := float64(wrong) / shots
	if math.Abs(got-e) > 0.01 {
		t.Fatalf("readout error rate = %v, want ~%v", got, e)
	}
}

func TestBackendIdleDecoherence(t *testing.T) {
	// A qubit prepared in |1> and idled for T1 must show e^-1 survival.
	const t1 = 10000.0
	b := NewDMBackend(1, NoiseModel{T1Ns: t1}, 1)
	b.Apply1(PauliX, 0, 0)
	b.Idle(0, t1)
	want := math.Exp(-1)
	if p := b.Prob1(0); math.Abs(p-want) > 1e-9 {
		t.Fatalf("P1 = %v, want %v", p, want)
	}
}

func TestSVAndDMBackendsAgreeOnIdealCircuit(t *testing.T) {
	sv := NewSVBackend(3, Ideal(), 3)
	dm := NewDMBackend(3, Ideal(), 3)
	both := func(f func(b Backend)) { f(sv); f(dm) }
	both(func(b Backend) {
		b.Apply1(Hadamard, 0, 20)
		b.ApplyCZ(0, 1, 40)
		b.Apply1(GateX90, 2, 20)
		b.ApplyCZ(1, 2, 40)
	})
	for q := 0; q < 3; q++ {
		if d := math.Abs(sv.Prob1(q) - dm.Prob1(q)); d > tol {
			t.Fatalf("backend disagreement on q%d: %v", q, d)
		}
	}
}

func TestBackendPanicsOnInvalidNoise(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid noise model")
		}
	}()
	NewSVBackend(1, NoiseModel{T1Ns: -5}, 1)
}

// reseedDraws is how many draws the reseed stream tests compare.
const reseedDraws = 10_000

// sameStream fails unless got and want yield the same next reseedDraws
// values.
func sameStream(t *testing.T, got, want *rand.Rand) {
	t.Helper()
	for i := 0; i < reseedDraws; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d: reseeded stream %d, fresh stream %d", i, g, w)
		}
	}
}

// A state-vector backend that has been drawn from and then reseeded to
// s continues exactly as one freshly built at s, on the stream both the
// backend and its state sample from.
func TestSVBackendReseedStream(t *testing.T) {
	b := NewSVBackend(2, NoiseModel{ReadoutError: 0.1}, 1)
	for i := 0; i < 50; i++ {
		b.Apply1(Hadamard, 0, 20)
		b.Measure(0, 300)
	}
	b.Reseed(42)
	if b.State.rng != b.rng {
		t.Fatal("state and backend sample from different streams after Reseed")
	}
	sameStream(t, b.rng, NewSVBackend(2, NoiseModel{ReadoutError: 0.1}, 42).rng)
}

func TestSVBackendReseedAllocs(t *testing.T) {
	b := NewSVBackend(2, Ideal(), 1)
	if n := testing.AllocsPerRun(100, func() { b.Reseed(42) }); n != 0 {
		t.Fatalf("Reseed allocates %v times, want 0", n)
	}
}

// The density-matrix backend's measurement-sampling stream reseeds the
// same way.
func TestDMBackendReseedStream(t *testing.T) {
	b := NewDMBackend(2, Ideal(), 1)
	for i := 0; i < 50; i++ {
		b.Apply1(Hadamard, 0, 20)
		b.Measure(0, 300)
	}
	b.Reseed(42)
	sameStream(t, b.rng, NewDMBackend(2, Ideal(), 42).rng)
}

func TestDMBackendReseedAllocs(t *testing.T) {
	b := NewDMBackend(2, Ideal(), 1)
	if n := testing.AllocsPerRun(100, func() { b.Reseed(42) }); n != 0 {
		t.Fatalf("Reseed allocates %v times, want 0", n)
	}
}
