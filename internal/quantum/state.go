package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// State is a pure-state simulator over n qubits. Amplitudes are indexed by
// the computational basis with qubit q occupying bit q of the index (qubit
// 0 is the least significant bit).
//
// Noise is applied stochastically (quantum trajectories): each noisy
// channel samples one Kraus branch per call, so expectation values
// converge to the density-matrix result when averaged over shots.
type State struct {
	n   int
	amp []complex128
	rng *rand.Rand
}

// NewState returns the |0...0> state on n qubits with the given RNG
// source for measurement sampling and trajectory noise.
func NewState(n int, rng *rand.Rand) *State {
	if n < 1 || n > 24 {
		panic(fmt.Sprintf("quantum: state size %d out of supported range [1,24]", n))
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n)), rng: rng}
	s.amp[0] = 1
	return s
}

// NumQubits returns the register width.
func (s *State) NumQubits() int { return s.n }

// SetRNG replaces the random stream used for measurement sampling and
// trajectory noise.
func (s *State) SetRNG(rng *rand.Rand) { s.rng = rng }

// Reset returns the register to |0...0>.
func (s *State) Reset() {
	for i := range s.amp {
		s.amp[i] = 0
	}
	s.amp[0] = 1
}

// Amplitude returns the amplitude of basis state idx (for tests).
func (s *State) Amplitude(idx int) complex128 { return s.amp[idx] }

// Norm returns the 2-norm of the state vector; 1 for any valid state.
func (s *State) Norm() float64 {
	var sum float64
	for _, a := range s.amp {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("quantum: qubit %d out of range [0,%d)", q, s.n))
	}
}

// Apply1 applies the single-qubit operator u to qubit q. The loop walks
// the blocks of 2·2^q amplitudes: in each, the run with bit q clear and
// the run with it set pair up element by element.
func (s *State) Apply1(u Matrix2, q int) {
	s.checkQubit(q)
	u00, u01, u10, u11 := u[0][0], u[0][1], u[1][0], u[1][1]
	bit := 1 << uint(q)
	for h := 0; h < len(s.amp); h += 2 * bit {
		lo, hi := s.amp[h:h+bit], s.amp[h+bit:][:bit]
		for i, a0 := range lo {
			a1 := hi[i]
			lo[i] = u00*a0 + u01*a1
			hi[i] = u10*a0 + u11*a1
		}
	}
}

// quad returns the four runs of the two-qubit block based at m (an
// index with bits ba and bb clear, and every bit below the lower of the
// two clear as well): the indices with neither bit set, bb only, ba only
// and both, in the basis order of a Matrix4 acting on (qa, qb). Each
// run holds min(ba, bb) amplitudes.
func quad(amp []complex128, m, ba, bb int) (x0, x1, x2, x3 []complex128) {
	run := min(ba, bb)
	x0 = amp[m:][:run]
	x1 = amp[m+bb:][:run]
	x2 = amp[m+ba:][:run]
	x3 = amp[m+ba+bb:][:run]
	return
}

// Apply2 applies the two-qubit operator u to qubits (qa, qb), with qa
// selecting the higher-order bit of u's 2-bit basis label. The walk
// nests over the blocks of the higher qubit and then of the lower one,
// and each amplitude quad gets u's rows as a sum in column order. The
// sums start from the first product rather than from 0, which can
// change only the sign of an exactly-zero amplitude.
func (s *State) Apply2(u Matrix4, qa, qb int) {
	s.checkPair(qa, qb)
	u00, u01, u02, u03 := u[0][0], u[0][1], u[0][2], u[0][3]
	u10, u11, u12, u13 := u[1][0], u[1][1], u[1][2], u[1][3]
	u20, u21, u22, u23 := u[2][0], u[2][1], u[2][2], u[2][3]
	u30, u31, u32, u33 := u[3][0], u[3][1], u[3][2], u[3][3]
	ba, bb := 1<<uint(qa), 1<<uint(qb)
	lo, hi := min(ba, bb), max(ba, bb)
	for h := 0; h < len(s.amp); h += 2 * hi {
		for m := h; m < h+hi; m += 2 * lo {
			x0, x1, x2, x3 := quad(s.amp, m, ba, bb)
			for i, a0 := range x0 {
				a1, a2, a3 := x1[i], x2[i], x3[i]
				x0[i] = u00*a0 + u01*a1 + u02*a2 + u03*a3
				x1[i] = u10*a0 + u11*a1 + u12*a2 + u13*a3
				x2[i] = u20*a0 + u21*a1 + u22*a2 + u23*a3
				x3[i] = u30*a0 + u31*a1 + u32*a2 + u33*a3
			}
		}
	}
}

// checkPair validates the operands of a two-qubit gate.
func (s *State) checkPair(qa, qb int) {
	s.checkQubit(qa)
	s.checkQubit(qb)
	if qa == qb {
		panic(fmt.Sprintf("quantum: two-qubit gate on identical qubit %d", qa))
	}
}

// czSpec is CZ's classified kernel: a controlled phase of -1.
var czSpec = ClassifyGate2(CZ)

// ApplyCZ applies the controlled-phase gate between qa and qb through
// the CPhase kernel, which negates only the amplitudes with both bits
// set.
func (s *State) ApplyCZ(qa, qb int) { s.ApplySpec2(&czSpec, qa, qb) }

// Prob1 returns the probability that measuring qubit q yields 1. The
// sum walks the runs with bit q set, in ascending index order (the
// summation order measurement reproducibility depends on).
func (s *State) Prob1(q int) float64 {
	s.checkQubit(q)
	bit := 1 << uint(q)
	var p float64
	for h := bit; h < len(s.amp); h += 2 * bit {
		for _, a := range s.amp[h : h+bit] {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// Measure performs a projective Z-basis measurement of qubit q, collapsing
// the state, and returns the outcome: one Prob1 scan over the set-bit
// runs, one collapse pass.
func (s *State) Measure(q int) int {
	p1 := s.Prob1(q)
	outcome := 0
	if s.rng.Float64() < p1 {
		outcome = 1
	}
	s.project(q, outcome, p1)
	return outcome
}

// projectNorm is the renormalisation factor for collapsing onto a
// branch of probability keepP (deterministically forced when the other
// branch is numerically impossible).
func projectNorm(keepP float64) complex128 {
	if keepP <= 0 {
		keepP = 1
	}
	return complex(1/math.Sqrt(keepP), 0)
}

// project collapses qubit q onto the given outcome and renormalises:
// in each block the kept run is scaled in place and the dropped run is
// cleared. p1 is the pre-measurement probability of outcome 1.
func (s *State) project(q, outcome int, p1 float64) {
	keepP := p1
	if outcome == 0 {
		keepP = 1 - p1
	}
	bit := 1 << uint(q)
	s.collapse(bit, outcome*bit, outcome*bit, projectNorm(keepP))
}

// collapse walks the blocks of 2·bit amplitudes, writes the run at
// offset from, scaled by norm, to the run at offset to (each offset is
// 0 or bit), and clears the other run. The clear rides in the same
// loop: a separate clear would call memclr once per block, which costs
// more than the block itself on the low qubits.
func (s *State) collapse(bit, from, to int, norm complex128) {
	drop := bit - to
	for h := 0; h < len(s.amp); h += 2 * bit {
		src := s.amp[h+from : h+from+bit]
		dst, dropped := s.amp[h+to:][:len(src)], s.amp[h+drop:][:len(src)]
		for i, a := range src {
			dst[i] = a * norm
			dropped[i] = 0
		}
	}
}

// ResetQubit projects qubit q to |0> regardless of outcome probability
// (an idealised unconditional reset, used when initialising by
// waiting). The collapse projects straight onto |0>: when the sampled
// outcome is 1, the kept run is lowered in the same pass instead of
// measuring first and applying X afterwards. The random stream and the
// resulting state are identical to the measure-then-X formulation.
func (s *State) ResetQubit(q int) {
	bit := 1 << uint(q)
	p1 := s.Prob1(q)
	if s.rng.Float64() < p1 {
		s.collapse(bit, bit, 0, projectNorm(p1))
		return
	}
	s.collapse(bit, 0, 0, projectNorm(1-p1))
}

// AmplitudeDamp applies the amplitude-damping channel (T1 relaxation) with
// decay probability gamma to qubit q, as one sampled trajectory branch.
func (s *State) AmplitudeDamp(q int, gamma float64) {
	if gamma <= 0 {
		return
	}
	s.checkQubit(q)
	// Kraus: K0 = [[1,0],[0,sqrt(1-g)]], K1 = [[0,sqrt(g)],[0,0]].
	// P(jump) = g * P(|1>).
	p1 := s.Prob1(q)
	pJump := gamma * p1
	if s.rng.Float64() < pJump {
		// Jump: qubit decays to |0>. Apply K1 and renormalise: this is
		// projection onto |1> followed by lowering.
		s.project(q, 1, p1)
		s.Apply1(PauliX, q) // lower |1> -> |0>
		return
	}
	// No-jump evolution: apply K0 and renormalise.
	k0 := Matrix2{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}}
	s.Apply1(k0, q)
	s.renormalize()
}

// Dephase applies the phase-damping channel with phase-flip probability p
// to qubit q (one trajectory branch: Z with probability p).
func (s *State) Dephase(q int, p float64) {
	if p <= 0 {
		return
	}
	if s.rng.Float64() < p {
		s.Apply1(PauliZ, q)
	}
}

// Depolarize1 applies single-qubit depolarizing noise of strength p to
// qubit q: with probability p a uniformly random Pauli (X, Y or Z) is
// applied.
func (s *State) Depolarize1(q int, p float64) {
	if p <= 0 {
		return
	}
	if s.rng.Float64() >= p {
		return
	}
	switch s.rng.Intn(3) {
	case 0:
		s.Apply1(PauliX, q)
	case 1:
		s.Apply1(PauliY, q)
	default:
		s.Apply1(PauliZ, q)
	}
}

// Depolarize2 applies two-qubit depolarizing noise of strength p: with
// probability p one of the 15 non-identity two-qubit Paulis is applied.
func (s *State) Depolarize2(qa, qb int, p float64) {
	if p <= 0 {
		return
	}
	if s.rng.Float64() >= p {
		return
	}
	k := s.rng.Intn(15) + 1 // 1..15, skipping II
	paulis := [4]Matrix2{Identity, PauliX, PauliY, PauliZ}
	if pa := k >> 2; pa != 0 {
		s.Apply1(paulis[pa], qa)
	}
	if pb := k & 3; pb != 0 {
		s.Apply1(paulis[pb], qb)
	}
}

func (s *State) renormalize() {
	n := s.Norm()
	if n == 0 {
		panic("quantum: state collapsed to zero vector")
	}
	inv := complex(1/n, 0)
	for i := range s.amp {
		s.amp[i] *= inv
	}
}

// Fidelity returns |<other|s>|^2, the overlap with another pure state of
// the same width.
func (s *State) Fidelity(other *State) float64 {
	if other.n != s.n {
		panic("quantum: fidelity between states of different width")
	}
	var ip complex128
	for i := range s.amp {
		ip += cmplx.Conj(other.amp[i]) * s.amp[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// Clone returns a deep copy sharing the RNG.
func (s *State) Clone() *State {
	c := &State{n: s.n, amp: make([]complex128, len(s.amp)), rng: s.rng}
	copy(c.amp, s.amp)
	return c
}
