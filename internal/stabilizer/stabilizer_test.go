package stabilizer

import (
	"math/rand"
	"testing"

	"eqasm/internal/quantum"
)

func TestGHZAllQubitsAgree(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		b := New(5, seed)
		b.Apply1(quantum.Hadamard, 0, 0)
		for q := 0; q < 4; q++ {
			b.Apply2(quantum.CNOT, q, q+1, 0)
		}
		first := b.Measure(0, 0)
		for q := 1; q < 5; q++ {
			if got := b.Measure(q, 0); got != first {
				t.Fatalf("seed %d: qubit %d read %d, qubit 0 read %d", seed, q, got, first)
			}
		}
		// Re-measuring is deterministic and stable.
		for q := 0; q < 5; q++ {
			if got := b.Measure(q, 0); got != first {
				t.Fatalf("seed %d: re-measure qubit %d read %d, want %d", seed, q, got, first)
			}
		}
	}
}

func TestProb1(t *testing.T) {
	b := New(2, 1)
	if p := b.Prob1(0); p != 0 {
		t.Fatalf("|00>: Prob1(0) = %v, want 0", p)
	}
	b.Apply1(quantum.GateX, 0, 0)
	if p := b.Prob1(0); p != 1 {
		t.Fatalf("X|0>: Prob1(0) = %v, want 1", p)
	}
	b.Apply1(quantum.Hadamard, 1, 0)
	if p := b.Prob1(1); p != 0.5 {
		t.Fatalf("H|0>: Prob1(1) = %v, want 0.5", p)
	}
	// Prob1 must not collapse the state.
	if p := b.Prob1(1); p != 0.5 {
		t.Fatalf("Prob1 collapsed the superposition: second call = %v", p)
	}
}

func TestNonCliffordPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Apply1(T) did not panic")
		}
		if _, ok := p.(*quantum.NonCliffordError); !ok {
			t.Fatalf("panic value %T, want *quantum.NonCliffordError", p)
		}
	}()
	New(1, 1).Apply1(quantum.TGate, 0, 0)
}

func TestResetAndReseedReproduce(t *testing.T) {
	run := func(b *Backend) []int {
		b.Apply1(quantum.Hadamard, 0, 0)
		b.Apply2(quantum.CNOT, 0, 1, 0)
		return []int{b.Measure(0, 0), b.Measure(1, 0)}
	}
	b := New(2, 42)
	first := run(b)
	b.Reset()
	b.Reseed(42)
	second := run(b)
	if first[0] != second[0] || first[1] != second[1] {
		t.Fatalf("reset+reseed run %v differs from first run %v", second, first)
	}
	if first[0] != first[1] {
		t.Fatalf("Bell pair read unequal bits %v", first)
	}
}

// clifford1Gates are the single-qubit Cliffords of the configured set.
var clifford1Gates = []quantum.Matrix2{
	quantum.Hadamard, quantum.SGate, quantum.PauliZ,
	quantum.GateX, quantum.GateY,
	quantum.GateX90, quantum.GateY90, quantum.GateXm90, quantum.GateYm90,
}

// TestParityWithStateVector drives identical random Clifford circuits
// through the tableau and the state vector with the same seed and demands
// identical measurement records — the backends share the one-draw-per-
// measurement stream discipline, so every sampled bit must agree.
func TestParityWithStateVector(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 14} {
		for circSeed := int64(0); circSeed < 8; circSeed++ {
			circ := rand.New(rand.NewSource(1000*int64(n) + circSeed))
			runSeed := circSeed*977 + 13

			sv := quantum.NewSVBackend(n, quantum.NoiseModel{}, runSeed)
			tab := New(n, runSeed)

			for step := 0; step < 40; step++ {
				switch k := circ.Intn(10); {
				case k < 5:
					u := clifford1Gates[circ.Intn(len(clifford1Gates))]
					q := circ.Intn(n)
					sv.Apply1(u, q, 0)
					tab.Apply1(u, q, 0)
				case k < 7 && n >= 2:
					qa := circ.Intn(n)
					qb := circ.Intn(n - 1)
					if qb >= qa {
						qb++
					}
					if circ.Intn(2) == 0 {
						sv.ApplyCZ(qa, qb, 0)
						tab.ApplyCZ(qa, qb, 0)
					} else {
						sv.Apply2(quantum.CNOT, qa, qb, 0)
						tab.Apply2(quantum.CNOT, qa, qb, 0)
					}
				default:
					q := circ.Intn(n)
					want := sv.Measure(q, 0)
					got := tab.Measure(q, 0)
					if got != want {
						t.Fatalf("n=%d circ=%d step=%d: tableau measured %d on q%d, state vector %d",
							n, circSeed, step, got, q, want)
					}
				}
			}
			// Final full register readout must agree bit for bit.
			for q := 0; q < n; q++ {
				want := sv.Measure(q, 0)
				got := tab.Measure(q, 0)
				if got != want {
					t.Fatalf("n=%d circ=%d final readout q%d: tableau %d, state vector %d",
						n, circSeed, q, got, want)
				}
			}
		}
	}
}

// TestLargeRegister exercises the >64-qubit word paths: a 1000-qubit GHZ
// chain whose readout must be perfectly correlated.
func TestLargeRegister(t *testing.T) {
	const n = 1000
	b := New(n, 7)
	b.Apply1(quantum.Hadamard, 0, 0)
	for q := 0; q < n-1; q++ {
		b.Apply2(quantum.CNOT, q, q+1, 0)
	}
	first := b.Measure(0, 0)
	for q := 1; q < n; q++ {
		if got := b.Measure(q, 0); got != first {
			t.Fatalf("GHZ qubit %d read %d, qubit 0 read %d", q, got, first)
		}
	}
}

func BenchmarkTableauGates(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			tab := New(n, 1)
			tab.Apply1(quantum.Hadamard, 0, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := i % (n - 1)
				tab.Apply2(quantum.CNOT, q, q+1, 0)
			}
		})
	}
}

func BenchmarkTableauMeasure(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			tab := New(n, 1)
			tab.Apply1(quantum.Hadamard, 0, 0)
			for q := 0; q < n-1; q++ {
				tab.Apply2(quantum.CNOT, q, q+1, 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Measure(i%n, 0)
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 64:
		return "n64"
	case 256:
		return "n256"
	default:
		return "n1024"
	}
}

// A tableau backend that has been drawn from and then reseeded to s
// yields the same next 10k draws as one freshly built at s.
func TestReseedStream(t *testing.T) {
	b := New(2, 1)
	for i := 0; i < 50; i++ {
		b.Apply1(quantum.Hadamard, 0, 0)
		b.Measure(0, 0)
	}
	b.Reseed(42)
	fresh := New(2, 42)
	for i := 0; i < 10_000; i++ {
		if g, w := b.rng.Int63(), fresh.rng.Int63(); g != w {
			t.Fatalf("draw %d: reseeded stream %d, fresh stream %d", i, g, w)
		}
	}
}

func TestReseedAllocs(t *testing.T) {
	b := New(2, 1)
	if n := testing.AllocsPerRun(100, func() { b.Reseed(42) }); n != 0 {
		t.Fatalf("Reseed allocates %v times, want 0", n)
	}
}
