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
//
// Every State kernel walks the amplitude array in one loop shape. A
// gate on qubit q pairs index i with i|2^q, and those pairs sit in
// blocks of 2·2^q amplitudes: the run with bit q clear followed by the
// run with it set. The kernel steps h over the blocks and walks the two
// runs of each block side by side; a two-qubit kernel nests the same
// walk over the higher qubit's blocks and then the lower one's, giving
// four runs (quad). Matrix entries are read into locals before the
// walk. Each amplitude gets the same floating-point operations in the
// same order as an index-by-index loop, and probability sums still run
// in ascending index order.

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

// ApplySpec1 applies a classified single-qubit unitary to qubit q,
// dispatching to the specialized kernel. Results are bit-identical to
// Apply1(sp.U, q) up to the sign of exactly-zero amplitudes.
func (s *State) ApplySpec1(sp *Gate1Spec, q int) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	switch sp.Kind {
	case Gate1Diag:
		d0, d1 := sp.U[0][0], sp.U[1][1]
		if d0 == 1 {
			// Phase gate: only the set-bit runs move.
			for h := bit; h < len(s.amp); h += 2 * bit {
				scale(s.amp[h:h+bit], d1)
			}
			return
		}
		for h := 0; h < len(s.amp); h += 2 * bit {
			scale(s.amp[h:h+bit], d0)
			scale(s.amp[h+bit:h+2*bit], d1)
		}
	case Gate1AntiDiag:
		u01, u10 := sp.U[0][1], sp.U[1][0]
		for h := 0; h < len(s.amp); h += 2 * bit {
			lo, hi := s.amp[h:h+bit], s.amp[h+bit:][:bit]
			for i, a0 := range lo {
				lo[i] = u01 * hi[i]
				hi[i] = u10 * a0
			}
		}
	case Gate1Hadamard:
		c := sp.U[0][0]
		for h := 0; h < len(s.amp); h += 2 * bit {
			lo, hi := s.amp[h:h+bit], s.amp[h+bit:][:bit]
			for i, a0 := range lo {
				ha0, ha1 := c*a0, c*hi[i]
				lo[i] = ha0 + ha1
				hi[i] = ha0 - ha1
			}
		}
	default:
		s.Apply1(sp.U, q)
	}
}

// scale multiplies a run of amplitudes by c.
func scale(run []complex128, c complex128) {
	for i, a := range run {
		run[i] = c * a
	}
}

// ApplySpec2 applies a classified two-qubit unitary to (qa, qb), with
// qa the higher-order basis label, dispatching to the specialized
// kernel. Results are bit-identical to Apply2(sp.U, qa, qb) up to the
// sign of exactly-zero amplitudes.
func (s *State) ApplySpec2(sp *Gate2Spec, qa, qb int) {
	s.checkPair(qa, qb)
	ba, bb := 1<<uint(qa), 1<<uint(qb)
	lo, hi := min(ba, bb), max(ba, bb)
	switch sp.Kind {
	case Gate2CPhase:
		// Only the runs with both bits set move; in each higher-qubit
		// block they start at offset ba+bb, one every 2·lo amplitudes.
		phase := sp.Vals[3]
		for h := 0; h < len(s.amp); h += 2 * hi {
			for m := h + ba + bb; m < h+2*hi; m += 2 * lo {
				run := s.amp[m : m+lo]
				if phase == -1 {
					for i, a := range run {
						run[i] = -a
					}
					continue
				}
				scale(run, phase)
			}
		}
	case Gate2Diag:
		v0, v1, v2, v3 := sp.Vals[0], sp.Vals[1], sp.Vals[2], sp.Vals[3]
		for h := 0; h < len(s.amp); h += 2 * hi {
			for m := h; m < h+hi; m += 2 * lo {
				x0, x1, x2, x3 := quad(s.amp, m, ba, bb)
				scale(x0, v0)
				scale(x1, v1)
				scale(x2, v2)
				scale(x3, v3)
			}
		}
	case Gate2Perm:
		// Column c of U sends the run x_c to the run x_{Rows[c]}.
		r0, r1, r2, r3 := sp.Rows[0], sp.Rows[1], sp.Rows[2], sp.Rows[3]
		v0, v1, v2, v3 := sp.Vals[0], sp.Vals[1], sp.Vals[2], sp.Vals[3]
		for h := 0; h < len(s.amp); h += 2 * hi {
			for m := h; m < h+hi; m += 2 * lo {
				x0, x1, x2, x3 := quad(s.amp, m, ba, bb)
				x := [4][]complex128{x0, x1, x2, x3}
				y0, y1, y2, y3 := x[r0][:len(x0)], x[r1][:len(x0)], x[r2][:len(x0)], x[r3][:len(x0)]
				for i, a0 := range x0 {
					a1, a2, a3 := x1[i], x2[i], x3[i]
					y0[i] = v0 * a0
					y1[i] = v1 * a1
					y2[i] = v2 * a2
					y3[i] = v3 * a3
				}
			}
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
