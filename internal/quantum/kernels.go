package quantum

// Kernel-specialized state-vector paths. The general Apply1/Apply2
// entry points multiply a full complex 2×2/4×4 matrix per amplitude
// pair; most configured operations are structurally sparse (phase
// gates are diagonal, Pauli X/Y are anti-diagonal, CZ is a controlled
// phase, CNOT/SWAP are permutations). ClassifyGate1/ClassifyGate2
// detect that structure once — the execution-plan builder calls them at
// lowering time — and ApplySpec1/ApplySpec2 dispatch to kernels that
// skip the zero terms.
//
// Classification is exact (structural zeros must be exactly 0, units
// exactly 1): every kernel then performs the same floating-point
// operations as the generic matrix path on the non-zero terms, so
// measurement statistics stay bit-identical to generic execution. A
// matrix that is only numerically close to a special form (e.g. the
// π x-rotation, whose diagonal holds cos(π/2) ≈ 6.1e-17) deliberately
// stays Gate1Generic.

// Gate1Kind classifies a single-qubit unitary for kernel dispatch.
type Gate1Kind uint8

const (
	// Gate1Generic uses the full 2×2 multiply.
	Gate1Generic Gate1Kind = iota
	// Gate1Diag is diag(d0, d1): Z, S, T, RZ phase gates.
	Gate1Diag
	// Gate1AntiDiag has only off-diagonal entries: exact Pauli X/Y.
	Gate1AntiDiag
	// Gate1Hadamard is the real Hadamard matrix.
	Gate1Hadamard
)

// Gate1Spec is a classified single-qubit unitary.
type Gate1Spec struct {
	Kind Gate1Kind
	U    Matrix2
	// Cliff is U's Clifford conjugation table when the execution-plan
	// layer resolved one (Clifford site kernels), nil otherwise. The
	// stabilizer backend applies it directly instead of recognizing U
	// on every application.
	Cliff *Cliff1
}

// ClassifyGate1 inspects u's structural zeros and returns the kernel
// specification the state vector dispatches on.
func ClassifyGate1(u Matrix2) Gate1Spec {
	switch {
	case u == Hadamard:
		return Gate1Spec{Kind: Gate1Hadamard, U: u}
	case u[0][1] == 0 && u[1][0] == 0:
		return Gate1Spec{Kind: Gate1Diag, U: u}
	case u[0][0] == 0 && u[1][1] == 0:
		return Gate1Spec{Kind: Gate1AntiDiag, U: u}
	}
	return Gate1Spec{Kind: Gate1Generic, U: u}
}

// Gate2Kind classifies a two-qubit unitary for kernel dispatch.
type Gate2Kind uint8

const (
	// Gate2Generic uses the full 4×4 multiply.
	Gate2Generic Gate2Kind = iota
	// Gate2CPhase is diag(1, 1, 1, phase): CZ and controlled-phase
	// gates, touching only the 2^(n-2) amplitudes with both bits set.
	Gate2CPhase
	// Gate2Diag is an arbitrary diagonal.
	Gate2Diag
	// Gate2Perm is a permutation with phases (one non-zero entry per
	// column): CNOT, SWAP, iSWAP.
	Gate2Perm
)

// Gate2Spec is a classified two-qubit unitary. For Gate2Perm, column c
// of U maps basis state c to Rows[c] with weight Vals[c].
type Gate2Spec struct {
	Kind Gate2Kind
	U    Matrix4
	Rows [4]int
	Vals [4]complex128
	// Cliff is U's Clifford conjugation table when the execution-plan
	// layer resolved one, nil otherwise (see Gate1Spec.Cliff).
	Cliff *Cliff2
}

// ClassifyGate2 inspects u's structural zeros and returns the kernel
// specification the state vector dispatches on.
func ClassifyGate2(u Matrix4) Gate2Spec {
	sp := Gate2Spec{Kind: Gate2Generic, U: u}
	diag := true
	for c := 0; c < 4; c++ {
		nonzero := -1
		for r := 0; r < 4; r++ {
			if u[r][c] == 0 {
				continue
			}
			if nonzero >= 0 {
				return sp // two entries in one column: dense
			}
			nonzero = r
		}
		if nonzero < 0 {
			return sp // singular column: not a unitary we specialize
		}
		sp.Rows[c], sp.Vals[c] = nonzero, u[nonzero][c]
		if nonzero != c {
			diag = false
		}
	}
	// Rows must also be one-per-row for a permutation (guaranteed when
	// each column has one non-zero and no row repeats).
	seen := [4]bool{}
	for _, r := range sp.Rows {
		if seen[r] {
			return sp
		}
		seen[r] = true
	}
	switch {
	case diag && sp.Vals[0] == 1 && sp.Vals[1] == 1 && sp.Vals[2] == 1:
		sp.Kind = Gate2CPhase
	case diag:
		sp.Kind = Gate2Diag
	default:
		sp.Kind = Gate2Perm
	}
	return sp
}

// base1 returns the k-th basis index with bit q clear, in ascending
// order: the state-vector kernels iterate 2^(n-1) base indices directly
// instead of scanning the full array and skipping half of it.
func base1(k, q int) int {
	return (k>>uint(q))<<uint(q+1) | k&(1<<uint(q)-1)
}

// base2 returns the k-th basis index with bits qLo < qHi clear, in
// ascending order (2^(n-2) bases).
func base2(k, qLo, qHi int) int {
	b := base1(k, qLo)
	return (b>>uint(qHi))<<uint(qHi+1) | b&(1<<uint(qHi)-1)
}

// ApplySpec1 applies a classified single-qubit unitary to qubit q,
// dispatching to the specialized kernel. Results are bit-identical to
// Apply1(sp.U, q) up to the sign of exactly-zero amplitudes.
func (s *State) ApplySpec1(sp *Gate1Spec, q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	half := len(s.amp) >> 1
	switch sp.Kind {
	case Gate1Diag:
		d0, d1 := sp.U[0][0], sp.U[1][1]
		if d0 == 1 {
			// Phase gate: only the set-bit half moves.
			for k := 0; k < half; k++ {
				i := base1(k, q) | bit
				s.amp[i] = d1 * s.amp[i]
			}
			return
		}
		for k := 0; k < half; k++ {
			base := base1(k, q)
			s.amp[base] = d0 * s.amp[base]
			s.amp[base|bit] = d1 * s.amp[base|bit]
		}
	case Gate1AntiDiag:
		u01, u10 := sp.U[0][1], sp.U[1][0]
		for k := 0; k < half; k++ {
			base := base1(k, q)
			a0, a1 := s.amp[base], s.amp[base|bit]
			s.amp[base] = u01 * a1
			s.amp[base|bit] = u10 * a0
		}
	case Gate1Hadamard:
		h := sp.U[0][0]
		for k := 0; k < half; k++ {
			base := base1(k, q)
			ha0, ha1 := h*s.amp[base], h*s.amp[base|bit]
			s.amp[base] = ha0 + ha1
			s.amp[base|bit] = ha0 - ha1
		}
	default:
		s.Apply1(sp.U, q)
	}
}

// ApplySpec2 applies a classified two-qubit unitary to (qa, qb), with
// qa the higher-order basis label, dispatching to the specialized
// kernel. Results are bit-identical to Apply2(sp.U, qa, qb) up to the
// sign of exactly-zero amplitudes.
func (s *State) ApplySpec2(sp *Gate2Spec, qa, qb int) {
	s.checkQubit(qa)
	s.checkQubit(qb)
	if qa == qb {
		panic("quantum: two-qubit gate on identical qubit")
	}
	ba, bb := 1<<uint(qa), 1<<uint(qb)
	lo, hi := qa, qb
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := len(s.amp) >> 2
	switch sp.Kind {
	case Gate2CPhase:
		phase := sp.Vals[3]
		both := ba | bb
		if phase == -1 {
			for k := 0; k < quarter; k++ {
				i := base2(k, lo, hi) | both
				s.amp[i] = -s.amp[i]
			}
			return
		}
		for k := 0; k < quarter; k++ {
			i := base2(k, lo, hi) | both
			s.amp[i] = phase * s.amp[i]
		}
	case Gate2Diag:
		for k := 0; k < quarter; k++ {
			base := base2(k, lo, hi)
			s.amp[base] = sp.Vals[0] * s.amp[base]
			s.amp[base|bb] = sp.Vals[1] * s.amp[base|bb]
			s.amp[base|ba] = sp.Vals[2] * s.amp[base|ba]
			s.amp[base|ba|bb] = sp.Vals[3] * s.amp[base|ba|bb]
		}
	case Gate2Perm:
		for k := 0; k < quarter; k++ {
			base := base2(k, lo, hi)
			var in [4]complex128
			in[0] = s.amp[base]
			in[1] = s.amp[base|bb]
			in[2] = s.amp[base|ba]
			in[3] = s.amp[base|ba|bb]
			var out [4]complex128
			for c := 0; c < 4; c++ {
				out[sp.Rows[c]] = sp.Vals[c] * in[c]
			}
			s.amp[base] = out[0]
			s.amp[base|bb] = out[1]
			s.amp[base|ba] = out[2]
			s.amp[base|ba|bb] = out[3]
		}
	default:
		s.Apply2(sp.U, qa, qb)
	}
}

// SpecBackend is implemented by backends with kernel-specialized gate
// paths; the microarchitecture's planned execution uses it when the
// plan carries pre-classified gate specifications. Specs are passed by
// pointer into the plan (or its binding), which owns them read-only.
type SpecBackend interface {
	// Apply1Spec is Apply1 through the classified kernel.
	Apply1Spec(sp *Gate1Spec, q int, durNs float64)
	// Apply2Spec is Apply2 through the classified kernel.
	Apply2Spec(sp *Gate2Spec, qa, qb int, durNs float64)
}

// Apply1Spec implements SpecBackend.
func (b *SVBackend) Apply1Spec(sp *Gate1Spec, q int, durNs float64) {
	b.Idle(q, durNs)
	b.State.ApplySpec1(sp, q)
	b.State.Depolarize1(q, b.Noise.Gate1QError)
}

// Apply2Spec implements SpecBackend.
func (b *SVBackend) Apply2Spec(sp *Gate2Spec, qa, qb int, durNs float64) {
	b.Idle(qa, durNs)
	b.Idle(qb, durNs)
	b.State.ApplySpec2(sp, qa, qb)
	b.State.Depolarize2(qa, qb, b.Noise.Gate2QError)
}

var _ SpecBackend = (*SVBackend)(nil)
