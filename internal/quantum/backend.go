package quantum

import (
	"fmt"
	"math/rand"
)

// Backend is the interface the control microarchitecture drives. It is
// deliberately narrow: real hardware exposes exactly codeword-triggered
// operations and discriminated measurement bits, so the microarchitecture
// code cannot depend on anything richer.
//
// Time handling: the microarchitecture calls Idle to advance a qubit's
// local clock before touching it, which is where interval-dependent
// decoherence (Fig. 12) enters.
type Backend interface {
	// NumQubits returns the register width.
	NumQubits() int
	// Reset returns all qubits to |0...0> and clears noise bookkeeping.
	Reset()
	// Apply1 applies a single-qubit unitary to qubit q, taking durNs
	// nanoseconds of wall-clock during which the noise model's gate error
	// applies.
	Apply1(u Matrix2, q int, durNs float64)
	// ApplyCZ applies the controlled-phase gate to (qa, qb) over durNs.
	ApplyCZ(qa, qb int, durNs float64)
	// Apply2 applies an arbitrary two-qubit unitary to (qa, qb) over
	// durNs, with qa as the high-order basis label of u.
	Apply2(u Matrix4, qa, qb int, durNs float64)
	// Idle exposes qubit q to decoherence for durNs nanoseconds.
	Idle(q int, durNs float64)
	// Measure performs a projective Z measurement of q taking durNs and
	// returns the discriminated bit, including readout assignment error.
	Measure(q int, durNs float64) int
	// Prob1 returns the ideal probability of reading 1 on q, before
	// readout error (used by experiments for exact statistics).
	Prob1(q int) float64
}

// SVBackend implements Backend over the trajectory state-vector simulator.
type SVBackend struct {
	State *State
	Noise NoiseModel
	rng   *rand.Rand
}

// NewSVBackend builds a state-vector backend with its own RNG stream.
func NewSVBackend(n int, noise NoiseModel, seed int64) *SVBackend {
	if err := noise.Validate(); err != nil {
		panic(fmt.Sprintf("quantum: invalid noise model: %v", err))
	}
	rng := rand.New(rand.NewSource(seed))
	return &SVBackend{State: NewState(n, rng), Noise: noise, rng: rng}
}

// NumQubits implements Backend.
func (b *SVBackend) NumQubits() int { return b.State.NumQubits() }

// Reset implements Backend.
func (b *SVBackend) Reset() { b.State.Reset() }

// Idle implements Backend: decoherence only. The noiseless fast path
// mirrors AmplitudeDamp/Dephase's zero-probability early returns (no
// random numbers are drawn either way).
func (b *SVBackend) Idle(q int, durNs float64) {
	if b.Noise.T1Ns <= 0 && b.Noise.T2Ns <= 0 {
		return
	}
	b.State.AmplitudeDamp(q, b.Noise.GammaT1(durNs))
	b.State.Dephase(q, b.Noise.PhiT2(durNs))
}

// Apply1 implements Backend.
func (b *SVBackend) Apply1(u Matrix2, q int, durNs float64) {
	b.Idle(q, durNs)
	b.State.Apply1(u, q)
	b.State.Depolarize1(q, b.Noise.Gate1QError)
}

// ApplyCZ implements Backend.
func (b *SVBackend) ApplyCZ(qa, qb int, durNs float64) {
	b.Idle(qa, durNs)
	b.Idle(qb, durNs)
	b.State.ApplyCZ(qa, qb)
	b.State.Depolarize2(qa, qb, b.Noise.Gate2QError)
}

// Apply2 implements Backend.
func (b *SVBackend) Apply2(u Matrix4, qa, qb int, durNs float64) {
	b.Idle(qa, durNs)
	b.Idle(qb, durNs)
	b.State.Apply2(u, qa, qb)
	b.State.Depolarize2(qa, qb, b.Noise.Gate2QError)
}

// Measure implements Backend: projective measurement plus symmetric
// assignment error on the reported bit. The qubit decoheres for the full
// measurement duration first (readout is long: 300 ns - 1 us).
func (b *SVBackend) Measure(q int, durNs float64) int {
	b.Idle(q, durNs)
	bit := b.State.Measure(q)
	if b.Noise.ReadoutError > 0 && b.rng.Float64() < b.Noise.ReadoutError {
		bit ^= 1
	}
	return bit
}

// Prob1 implements Backend.
func (b *SVBackend) Prob1(q int) float64 { return b.State.Prob1(q) }

// Reseed restarts the backend's random stream as if it had been built
// with NewSVBackend(n, noise, seed). Together with Reset this returns
// the simulator to its power-on state, letting machine pools reuse
// allocations across jobs without losing seeded reproducibility. The
// stream is reseeded in place, so a pooled checkout allocates nothing.
func (b *SVBackend) Reseed(seed int64) { b.rng.Seed(seed) }

// DMBackend implements Backend over the exact density-matrix simulator.
// Measurements still sample an outcome (the microarchitecture needs a
// definite bit for feedback), collapsing rho selectively, but Prob1 and
// the underlying Density give exact statistics.
type DMBackend struct {
	Density *Density
	Noise   NoiseModel
	rng     *rand.Rand
}

// NewDMBackend builds a density-matrix backend with its own RNG stream
// (the RNG is used only to sample measurement outcomes for feedback).
func NewDMBackend(n int, noise NoiseModel, seed int64) *DMBackend {
	if err := noise.Validate(); err != nil {
		panic(fmt.Sprintf("quantum: invalid noise model: %v", err))
	}
	return &DMBackend{Density: NewDensity(n), Noise: noise, rng: rand.New(rand.NewSource(seed))}
}

// NumQubits implements Backend.
func (b *DMBackend) NumQubits() int { return b.Density.NumQubits() }

// Reseed restarts the measurement-sampling stream as if the backend had
// been built with NewDMBackend(n, noise, seed), in place (see
// SVBackend.Reseed).
func (b *DMBackend) Reseed(seed int64) { b.rng.Seed(seed) }

// Reset implements Backend.
func (b *DMBackend) Reset() { b.Density.Reset() }

// Idle implements Backend.
func (b *DMBackend) Idle(q int, durNs float64) {
	b.Density.AmplitudeDamp(q, b.Noise.GammaT1(durNs))
	b.Density.Dephase(q, b.Noise.PhiT2(durNs))
}

// Apply1 implements Backend.
func (b *DMBackend) Apply1(u Matrix2, q int, durNs float64) {
	b.Idle(q, durNs)
	b.Density.Apply1(u, q)
	b.Density.Depolarize1(q, b.Noise.Gate1QError)
}

// ApplyCZ implements Backend.
func (b *DMBackend) ApplyCZ(qa, qb int, durNs float64) {
	b.Idle(qa, durNs)
	b.Idle(qb, durNs)
	b.Density.ApplyCZ(qa, qb)
	b.Density.Depolarize2(qa, qb, b.Noise.Gate2QError)
}

// Apply2 implements Backend.
func (b *DMBackend) Apply2(u Matrix4, qa, qb int, durNs float64) {
	b.Idle(qa, durNs)
	b.Idle(qb, durNs)
	b.Density.Apply2(u, qa, qb)
	b.Density.Depolarize2(qa, qb, b.Noise.Gate2QError)
}

// Measure implements Backend.
func (b *DMBackend) Measure(q int, durNs float64) int {
	b.Idle(q, durNs)
	p1 := b.Density.Prob1(q)
	bit := 0
	if b.rng.Float64() < p1 {
		bit = 1
	}
	b.Density.ProjectMeasure(q, bit)
	if b.Noise.ReadoutError > 0 && b.rng.Float64() < b.Noise.ReadoutError {
		bit ^= 1
	}
	return bit
}

// Prob1 implements Backend.
func (b *DMBackend) Prob1(q int) float64 { return b.Density.Prob1(q) }

// Interface conformance checks.
var (
	_ Backend = (*SVBackend)(nil)
	_ Backend = (*DMBackend)(nil)
)
