package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Frozen reference kernels: the state-vector loops as they stood before
// the blocked rewrite, which enumerated base indices one at a time with
// base1/base2. They are the parity oracle for the kernel tests below
// (the exec goldens see only measurement bits, not amplitudes), so they
// must not be edited along with the production kernels.

// base1 returns the k-th basis index with bit q clear, in ascending
// order.
func base1(k, q int) int {
	return (k>>uint(q))<<uint(q+1) | k&(1<<uint(q)-1)
}

// base2 returns the k-th basis index with bits qLo < qHi clear, in
// ascending order (2^(n-2) bases).
func base2(k, qLo, qHi int) int {
	b := base1(k, qLo)
	return (b>>uint(qHi))<<uint(qHi+1) | b&(1<<uint(qHi)-1)
}

func refApply1(s *State, u Matrix2, q int) {
	bit := 1 << uint(q)
	half := len(s.amp) >> 1
	for k := 0; k < half; k++ {
		base := base1(k, q)
		a0 := s.amp[base]
		a1 := s.amp[base|bit]
		s.amp[base] = u[0][0]*a0 + u[0][1]*a1
		s.amp[base|bit] = u[1][0]*a0 + u[1][1]*a1
	}
}

func refApply2(s *State, u Matrix4, qa, qb int) {
	ba := 1 << uint(qa)
	bb := 1 << uint(qb)
	lo, hi := qa, qb
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := len(s.amp) >> 2
	for k := 0; k < quarter; k++ {
		base := base2(k, lo, hi)
		var in [4]complex128
		in[0] = s.amp[base]
		in[1] = s.amp[base|bb]
		in[2] = s.amp[base|ba]
		in[3] = s.amp[base|ba|bb]
		var out [4]complex128
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				out[r] += u[r][c] * in[c]
			}
		}
		s.amp[base] = out[0]
		s.amp[base|bb] = out[1]
		s.amp[base|ba] = out[2]
		s.amp[base|ba|bb] = out[3]
	}
}

func refApplyCZ(s *State, qa, qb int) {
	mask := (1 << uint(qa)) | (1 << uint(qb))
	lo, hi := qa, qb
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := len(s.amp) >> 2
	for k := 0; k < quarter; k++ {
		i := base2(k, lo, hi) | mask
		s.amp[i] = -s.amp[i]
	}
}

func refProb1(s *State, q int) float64 {
	bit := 1 << uint(q)
	half := len(s.amp) >> 1
	var p float64
	for k := 0; k < half; k++ {
		a := s.amp[base1(k, q)|bit]
		p += real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

func refMeasure(s *State, q int) int {
	p1 := refProb1(s, q)
	outcome := 0
	if s.rng.Float64() < p1 {
		outcome = 1
	}
	refProject(s, q, outcome, p1)
	return outcome
}

func refProject(s *State, q, outcome int, p1 float64) {
	bit := 1 << uint(q)
	half := len(s.amp) >> 1
	keepP := p1
	if outcome == 0 {
		keepP = 1 - p1
	}
	norm := projectNorm(keepP)
	if outcome == 1 {
		for k := 0; k < half; k++ {
			base := base1(k, q)
			s.amp[base] = 0
			s.amp[base|bit] *= norm
		}
		return
	}
	for k := 0; k < half; k++ {
		base := base1(k, q)
		s.amp[base] *= norm
		s.amp[base|bit] = 0
	}
}

func refResetQubit(s *State, q int) {
	bit := 1 << uint(q)
	half := len(s.amp) >> 1
	p1 := refProb1(s, q)
	if s.rng.Float64() < p1 {
		norm := projectNorm(p1)
		for k := 0; k < half; k++ {
			base := base1(k, q)
			s.amp[base] = s.amp[base|bit] * norm
			s.amp[base|bit] = 0
		}
		return
	}
	norm := projectNorm(1 - p1)
	for k := 0; k < half; k++ {
		base := base1(k, q)
		s.amp[base] *= norm
		s.amp[base|bit] = 0
	}
}

func refAmplitudeDamp(s *State, q int, gamma float64) {
	if gamma <= 0 {
		return
	}
	p1 := refProb1(s, q)
	pJump := gamma * p1
	if s.rng.Float64() < pJump {
		refProject(s, q, 1, p1)
		refApply1(s, PauliX, q)
		return
	}
	k0 := Matrix2{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}}
	refApply1(s, k0, q)
	s.renormalize()
}

func refApplySpec1(s *State, sp *Gate1Spec, q int) {
	bit := 1 << uint(q)
	half := len(s.amp) >> 1
	switch sp.Kind {
	case Gate1Diag:
		d0, d1 := sp.U[0][0], sp.U[1][1]
		if d0 == 1 {
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
		refApply1(s, sp.U, q)
	}
}

func refApplySpec2(s *State, sp *Gate2Spec, qa, qb int) {
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
		refApply2(s, sp.U, qa, qb)
	}
}

// kernelCase is one production kernel next to its frozen reference.
// Both return a scalar result (a probability or an outcome; 0 when the
// kernel has none) that must match bit for bit.
type kernelCase struct {
	name     string
	got, ref func(s *State) float64
}

// randomMatrix2 returns a dense 2×2 with Gaussian complex entries; the
// kernels never assume unitarity, so parity holds for any matrix.
func randomMatrix2(rng *rand.Rand) Matrix2 {
	var u Matrix2
	for r := range u {
		for c := range u[r] {
			u[r][c] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return u
}

func randomMatrix4(rng *rand.Rand) Matrix4 {
	var u Matrix4
	for r := range u {
		for c := range u[r] {
			u[r][c] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return u
}

func randomPhase(rng *rand.Rand) complex128 {
	return complex(rng.NormFloat64(), rng.NormFloat64())
}

// specs1 returns one matrix of every Gate1Kind (the Diag kind both with
// d0 ≠ 1 and as a phase gate, d0 = 1), checked against ClassifyGate1.
func specs1(t testing.TB, rng *rand.Rand) map[string]Gate1Spec {
	want := map[string]struct {
		u    Matrix2
		kind Gate1Kind
	}{
		"generic":  {randomMatrix2(rng), Gate1Generic},
		"diag":     {Matrix2{{randomPhase(rng), 0}, {0, randomPhase(rng)}}, Gate1Diag},
		"phase":    {Matrix2{{1, 0}, {0, randomPhase(rng)}}, Gate1Diag},
		"antidiag": {Matrix2{{0, randomPhase(rng)}, {randomPhase(rng), 0}}, Gate1AntiDiag},
		"hadamard": {Hadamard, Gate1Hadamard},
	}
	out := make(map[string]Gate1Spec, len(want))
	for name, w := range want {
		sp := ClassifyGate1(w.u)
		if sp.Kind != w.kind {
			t.Fatalf("%s classified %v, want %v", name, sp.Kind, w.kind)
		}
		out[name] = sp
	}
	return out
}

// specs2 returns one matrix of every Gate2Kind (CPhase both as CZ and
// with a general phase; Perm as CNOT, SWAP and a phased permutation),
// checked against ClassifyGate2.
func specs2(t testing.TB, rng *rand.Rand) map[string]Gate2Spec {
	perm := rng.Perm(4)
	var phased Matrix4
	for c, r := range perm {
		phased[r][c] = randomPhase(rng)
	}
	permKind := Gate2Perm
	if perm[0] == 0 && perm[1] == 1 && perm[2] == 2 {
		permKind = Gate2Diag // identity permutation with phases
	}
	swap := Matrix4{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}}
	want := map[string]struct {
		u    Matrix4
		kind Gate2Kind
	}{
		"generic": {randomMatrix4(rng), Gate2Generic},
		"cz":      {CZ, Gate2CPhase},
		"cphase":  {Matrix4{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, randomPhase(rng)}}, Gate2CPhase},
		"diag":    {Matrix4{{randomPhase(rng), 0, 0, 0}, {0, randomPhase(rng), 0, 0}, {0, 0, randomPhase(rng), 0}, {0, 0, 0, randomPhase(rng)}}, Gate2Diag},
		"cnot":    {CNOT, Gate2Perm},
		"swap":    {swap, Gate2Perm},
		"perm":    {phased, permKind},
	}
	out := make(map[string]Gate2Spec, len(want))
	for name, w := range want {
		sp := ClassifyGate2(w.u)
		if sp.Kind != w.kind {
			t.Fatalf("%s classified %v, want %v", name, sp.Kind, w.kind)
		}
		out[name] = sp
	}
	return out
}

// branchSeed returns an RNG seed whose first Float64 falls below p when
// below is true and at or above it otherwise, so a sampled kernel can be
// driven down a chosen branch; ok is false when no seed in range does.
func branchSeed(p float64, below bool) (seed int64, ok bool) {
	for seed = 1; seed < 4096; seed++ {
		if (rand.New(rand.NewSource(seed)).Float64() < p) == below {
			return seed, true
		}
	}
	return 0, false
}

// sampled wraps a kernel that draws from the state's RNG so the
// production and reference copies each start from the same seed.
func sampled(seed int64, f func(s *State) float64) func(s *State) float64 {
	return func(s *State) float64 {
		s.SetRNG(rand.New(rand.NewSource(seed)))
		return f(s)
	}
}

// cases1 lists every single-qubit kernel on qubit q of state s (which
// the branch seeds are chosen against).
func cases1(t testing.TB, s *State, q int, rng *rand.Rand) []kernelCase {
	u := randomMatrix2(rng)
	cs := []kernelCase{
		{"Apply1",
			func(s *State) float64 { s.Apply1(u, q); return 0 },
			func(s *State) float64 { refApply1(s, u, q); return 0 }},
		{"Prob1",
			func(s *State) float64 { return s.Prob1(q) },
			func(s *State) float64 { return refProb1(s, q) }},
	}
	for name, sp := range specs1(t, rng) {
		cs = append(cs, kernelCase{"ApplySpec1/" + name,
			func(s *State) float64 { s.ApplySpec1(&sp, q); return 0 },
			func(s *State) float64 { refApplySpec1(s, &sp, q); return 0 }})
	}
	p1 := refProb1(s, q)
	const gamma = 0.75
	for outcome := 0; outcome < 2; outcome++ {
		o := fmt.Sprint(outcome)
		cs = append(cs, kernelCase{"project/" + o,
			func(s *State) float64 { s.project(q, outcome, p1); return 0 },
			func(s *State) float64 { refProject(s, q, outcome, p1); return 0 }})
		if seed, ok := branchSeed(p1, outcome == 1); ok {
			cs = append(cs,
				kernelCase{"Measure/" + o,
					sampled(seed, func(s *State) float64 { return float64(s.Measure(q)) }),
					sampled(seed, func(s *State) float64 { return float64(refMeasure(s, q)) })},
				kernelCase{"ResetQubit/" + o,
					sampled(seed, func(s *State) float64 { s.ResetQubit(q); return 0 }),
					sampled(seed, func(s *State) float64 { refResetQubit(s, q); return 0 })})
		}
		if seed, ok := branchSeed(gamma*p1, outcome == 1); ok {
			cs = append(cs, kernelCase{"AmplitudeDamp/" + o,
				sampled(seed, func(s *State) float64 { s.AmplitudeDamp(q, gamma); return 0 }),
				sampled(seed, func(s *State) float64 { refAmplitudeDamp(s, q, gamma); return 0 })})
		}
	}
	return cs
}

// cases2 lists every two-qubit kernel on the ordered pair (qa, qb).
func cases2(t testing.TB, qa, qb int, rng *rand.Rand) []kernelCase {
	u := randomMatrix4(rng)
	cs := []kernelCase{
		{"Apply2",
			func(s *State) float64 { s.Apply2(u, qa, qb); return 0 },
			func(s *State) float64 { refApply2(s, u, qa, qb); return 0 }},
		{"ApplyCZ",
			func(s *State) float64 { s.ApplyCZ(qa, qb); return 0 },
			func(s *State) float64 { refApplyCZ(s, qa, qb); return 0 }},
	}
	for name, sp := range specs2(t, rng) {
		cs = append(cs, kernelCase{"ApplySpec2/" + name,
			func(s *State) float64 { s.ApplySpec2(&sp, qa, qb); return 0 },
			func(s *State) float64 { refApplySpec2(s, &sp, qa, qb); return 0 }})
	}
	return cs
}

// checkParity runs each case on two copies of s and requires identical
// amplitudes (real and imaginary parts compared with ==, so +0 and -0
// agree) and bit-identical scalar results.
func checkParity(t testing.TB, s *State, where string, cs []kernelCase) {
	t.Helper()
	for _, c := range cs {
		got, ref := s.Clone(), s.Clone()
		gv, rv := c.got(got), c.ref(ref)
		if math.Float64bits(gv) != math.Float64bits(rv) {
			t.Errorf("%s %s: result %v (%#x), reference %v (%#x)",
				where, c.name, gv, math.Float64bits(gv), rv, math.Float64bits(rv))
		}
		for i, r := range ref.amp {
			g := got.amp[i]
			if real(g) != real(r) || imag(g) != imag(r) {
				t.Errorf("%s %s: amp[%d] = %v, reference %v", where, c.name, i, g, r)
				break
			}
		}
	}
}

// TestKernelParity pins every state-vector kernel to its frozen
// reference on random normalised states: every qubit, every ordered
// pair in both orders, every gate kind.
func TestKernelParity(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 10} {
		rng := rand.New(rand.NewSource(int64(n)))
		for q := 0; q < n; q++ {
			s := randomState(n, rng.Int63())
			checkParity(t, s, fmt.Sprintf("n=%d q=%d", n, q), cases1(t, s, q, rng))
		}
		for qa := 0; qa < n; qa++ {
			for qb := 0; qb < n; qb++ {
				if qa == qb {
					continue
				}
				s := randomState(n, rng.Int63())
				checkParity(t, s, fmt.Sprintf("n=%d pair=(%d,%d)", n, qa, qb), cases2(t, qa, qb, rng))
			}
		}
	}
}

// FuzzKernelParity draws the register width, the qubits, the matrices
// and the state.
func FuzzKernelParity(f *testing.F) {
	f.Add(uint8(5), uint8(1), uint8(3), int64(1), int64(2))
	f.Add(uint8(10), uint8(9), uint8(0), int64(7), int64(11))
	f.Add(uint8(1), uint8(0), uint8(0), int64(3), int64(5))
	f.Fuzz(func(t *testing.T, n, qa, qb uint8, mseed, seed int64) {
		w := 1 + int(n)%12
		a, b := int(qa)%w, int(qb)%w
		rng := rand.New(rand.NewSource(mseed))
		s := randomState(w, seed)
		where := fmt.Sprintf("n=%d q=%d", w, a)
		checkParity(t, s, where, cases1(t, s, a, rng))
		if a != b {
			where = fmt.Sprintf("n=%d pair=(%d,%d)", w, a, b)
			checkParity(t, s, where, cases2(t, a, b, rng))
		}
	})
}
