// Package stabilizer is the Gottesman–Knill tableau simulator behind the
// quantum.Backend interface: Clifford circuits — the paper's Bell, active
// reset and Surface-17 QEC scenarios, and the surface-code cycles the
// CC-Light instantiation exists to run — in O(n) bits of state per
// stabilizer generator instead of 2^n amplitudes, opening 1000+-qubit
// registers the state vector cannot touch.
//
// The representation is the Aaronson–Gottesman CHP tableau (Phys. Rev. A
// 70, 052328): 2n+1 rows of X/Z bit-vectors plus a phase column, rows
// 0..n-1 the destabilizer generators, rows n..2n-1 the stabilizer
// generators, and one scratch row. The destabilizer extension is what
// makes deterministic-outcome measurement O(n^2) instead of O(n^3): the
// destabilizers record which stabilizer products reproduce an observable
// without Gaussian elimination. Rows are stored contiguously (row-major),
// so the measurement hot loop — phase-tracking row multiplication — runs
// word-parallel, 64 qubit columns per step.
//
// Gates are not limited to a hard-wired H/S/CNOT set: any single- or
// two-qubit Clifford unitary handed to Apply1/Apply2/ApplyCZ is resolved
// through quantum.CliffordImage1/2 into its Pauli conjugation table and
// applied to every row with one table lookup each; planned execution
// hands over specs whose tables the plan already resolved. Non-Clifford unitaries
// panic with *quantum.NonCliffordError, which the machine layer recovers
// into an ordinary execution fault.
package stabilizer

import (
	"fmt"
	"math/bits"
	"math/rand"

	"eqasm/internal/quantum"
)

// Backend is a stabilizer-tableau simulator implementing quantum.Backend
// for noiseless Clifford workloads. It mirrors the state-vector backend's
// random-stream discipline — exactly one Float64 draw per measurement,
// compared against the outcome probability — so a seeded run reproduces
// the state vector's measurement record bit for bit on the circuits both
// can simulate.
type Backend struct {
	n int
	w int // 64-bit words per row

	// x and z hold (2n+1) rows of w words each; row i occupies
	// [i*w, i*w+w). r is the per-row phase bit (1 = negative sign).
	x, z []uint64
	r    []uint8

	rng *rand.Rand
}

// New builds a tableau backend over n qubits in the |0...0> state with
// its own RNG stream (used only to sample random measurement outcomes).
func New(n int, seed int64) *Backend {
	if n <= 0 {
		panic(fmt.Sprintf("stabilizer: invalid qubit count %d", n))
	}
	w := (n + 63) / 64
	b := &Backend{
		n:   n,
		w:   w,
		x:   make([]uint64, (2*n+1)*w),
		z:   make([]uint64, (2*n+1)*w),
		r:   make([]uint8, 2*n+1),
		rng: rand.New(rand.NewSource(seed)),
	}
	b.Reset()
	return b
}

// NumQubits implements quantum.Backend.
func (b *Backend) NumQubits() int { return b.n }

// Reset implements quantum.Backend: destabilizer i = X_i, stabilizer i =
// Z_i, all phases positive — the tableau of |0...0>.
func (b *Backend) Reset() {
	clear(b.x)
	clear(b.z)
	clear(b.r)
	for i := 0; i < b.n; i++ {
		b.x[i*b.w+i>>6] |= 1 << uint(i&63)
		b.z[(b.n+i)*b.w+i>>6] |= 1 << uint(i&63)
	}
}

// Reseed restarts the backend's random stream as if it had been built
// with New(n, seed), letting machine pools reuse allocations across jobs
// without losing seeded reproducibility. The stream is reseeded in
// place, so a pooled checkout allocates nothing.
func (b *Backend) Reseed(seed int64) { b.rng.Seed(seed) }

// Idle implements quantum.Backend. The tableau models ideal qubits (the
// selection layers only route noiseless plans here), so idling is free.
func (b *Backend) Idle(q int, durNs float64) {}

// Apply1 implements quantum.Backend for single-qubit Clifford unitaries.
func (b *Backend) Apply1(u quantum.Matrix2, q int, durNs float64) {
	c, ok := quantum.CliffordImage1(u)
	if !ok {
		panic(&quantum.NonCliffordError{Gate: fmt.Sprintf("single-qubit unitary %v", u)})
	}
	b.conj1(c, q)
}

// Apply2 implements quantum.Backend for two-qubit Clifford unitaries,
// with qa as the high-order basis label of u.
func (b *Backend) Apply2(u quantum.Matrix4, qa, qb int, durNs float64) {
	c, ok := quantum.CliffordImage2(u)
	if !ok {
		panic(&quantum.NonCliffordError{Gate: fmt.Sprintf("two-qubit unitary %v", u)})
	}
	b.conj2(c, qa, qb)
}

// ApplyCZ implements quantum.Backend.
func (b *Backend) ApplyCZ(qa, qb int, durNs float64) {
	c, _ := quantum.CliffordImage2(quantum.CZ)
	b.conj2(c, qa, qb)
}

// Apply1Spec implements quantum.SpecBackend: the planned execution path
// hands over the kernel-classified spec, whose Clifford table the plan
// resolved at build or bind time; a spec without one (a fused product)
// routes its unitary through the same table machinery as Apply1.
func (b *Backend) Apply1Spec(sp *quantum.Gate1Spec, q int, durNs float64) {
	if sp.Cliff == nil {
		b.Apply1(sp.U, q, durNs)
		return
	}
	b.conj1(sp.Cliff, q)
}

// Apply2Spec implements quantum.SpecBackend.
func (b *Backend) Apply2Spec(sp *quantum.Gate2Spec, qa, qb int, durNs float64) {
	if sp.Cliff == nil {
		b.Apply2(sp.U, qa, qb, durNs)
		return
	}
	b.conj2(sp.Cliff, qa, qb)
}

// conj1 rewrites every row's letter on qubit q through the Clifford's
// conjugation table.
func (b *Backend) conj1(c *quantum.Cliff1, q int) {
	wq, bit := q>>6, uint(q&63)
	for i, off := 0, wq; i < 2*b.n; i, off = i+1, off+b.w {
		xb := b.x[off] >> bit & 1
		zb := b.z[off] >> bit & 1
		if xb|zb == 0 {
			continue
		}
		img := c.Img[xb|zb<<1]
		b.x[off] = b.x[off]&^(1<<bit) | uint64(img.X)<<bit
		b.z[off] = b.z[off]&^(1<<bit) | uint64(img.Z)<<bit
		b.r[i] ^= img.Sign
	}
}

// conj2 rewrites every row's letter pair on (qa, qb) through the
// Clifford's conjugation table.
func (b *Backend) conj2(c *quantum.Cliff2, qa, qb int) {
	wa, ba := qa>>6, uint(qa&63)
	wb, bb := qb>>6, uint(qb&63)
	for i, off := 0, 0; i < 2*b.n; i, off = i+1, off+b.w {
		xa := b.x[off+wa] >> ba & 1
		za := b.z[off+wa] >> ba & 1
		xb := b.x[off+wb] >> bb & 1
		zb := b.z[off+wb] >> bb & 1
		if xa|za|xb|zb == 0 {
			continue
		}
		img := c.Img[xa|za<<1|xb<<2|zb<<3]
		b.x[off+wa] = b.x[off+wa]&^(1<<ba) | uint64(img.XA)<<ba
		b.z[off+wa] = b.z[off+wa]&^(1<<ba) | uint64(img.ZA)<<ba
		b.x[off+wb] = b.x[off+wb]&^(1<<bb) | uint64(img.XB)<<bb
		b.z[off+wb] = b.z[off+wb]&^(1<<bb) | uint64(img.ZB)<<bb
		b.r[i] ^= img.Sign
	}
}

// Measure implements quantum.Backend: projective Z measurement of q.
// Exactly one random draw is consumed per call, compared against the
// outcome probability, matching the state-vector backend's stream usage.
func (b *Backend) Measure(q int, durNs float64) int {
	p1, p := b.prob1(q)
	outcome := 0
	if b.rng.Float64() < p1 {
		outcome = 1
	}
	b.collapse(q, p, outcome)
	return outcome
}

// Prob1 implements quantum.Backend: 0, 0.5 or 1 — stabilizer states admit
// no other Z-measurement probabilities.
func (b *Backend) Prob1(q int) float64 {
	p1, _ := b.prob1(q)
	return p1
}

// prob1 computes the probability of reading 1 on q and, when the outcome
// is random, the index of the first anticommuting stabilizer row.
func (b *Backend) prob1(q int) (p1 float64, p int) {
	wq, bit := q>>6, uint(q&63)
	for i := b.n; i < 2*b.n; i++ {
		if b.x[i*b.w+wq]>>bit&1 == 1 {
			return 0.5, i
		}
	}
	// Deterministic outcome: accumulate into the scratch row the product
	// of the stabilizers whose destabilizer partners anticommute with Z_q;
	// that product is +-Z_q and its phase is the outcome.
	scratch := 2 * b.n
	b.zeroRow(scratch)
	for i := 0; i < b.n; i++ {
		if b.x[i*b.w+wq]>>bit&1 == 1 {
			b.rowmul(scratch, b.n+i)
		}
	}
	return float64(b.r[scratch]), -1
}

// collapse projects the tableau onto outcome for qubit q. p is the first
// anticommuting stabilizer row from prob1 (-1 when deterministic, in
// which case the state is already an eigenstate and nothing changes).
func (b *Backend) collapse(q, p, outcome int) {
	if p < 0 {
		return
	}
	wq, bit := q>>6, uint(q&63)
	for i := 0; i < 2*b.n; i++ {
		if i != p && b.x[i*b.w+wq]>>bit&1 == 1 {
			b.rowmul(i, p)
		}
	}
	// Row p's destabilizer partner becomes the old stabilizer; row p
	// becomes the measured observable with the sampled sign.
	b.copyRow(p-b.n, p)
	b.zeroRow(p)
	b.z[p*b.w+wq] |= 1 << bit
	b.r[p] = uint8(outcome)
}

// rowmul multiplies row h by row i in place (CHP's "rowsum"): the
// symplectic bits XOR; the phase follows the i-power bookkeeping of Pauli
// letter products, evaluated 64 columns at a time. For each column the
// letter product contributes i^g with g in {-1, 0, +1}; the masks below
// select the +1 and -1 cases of the Aaronson–Gottesman g function, and
// the total exponent 2r_h + 2r_i + sum(g) is always 0 or 2 mod 4.
func (b *Backend) rowmul(h, i int) {
	xh := b.x[h*b.w : h*b.w+b.w]
	zh := b.z[h*b.w : h*b.w+b.w]
	xi := b.x[i*b.w : i*b.w+b.w]
	zi := b.z[i*b.w : i*b.w+b.w]
	sum := 2*int(b.r[h]) + 2*int(b.r[i])
	for k := 0; k < b.w; k++ {
		x1, z1 := xi[k], zi[k]
		x2, z2 := xh[k], zh[k]
		plus := (x1 & z1 & z2 &^ x2) | (x1 &^ z1 & x2 & z2) | (z1 &^ x1 & x2 &^ z2)
		minus := (x1 & z1 & x2 &^ z2) | (x1 &^ z1 & z2 &^ x2) | (z1 &^ x1 & x2 & z2)
		sum += bits.OnesCount64(plus) - bits.OnesCount64(minus)
		xh[k] = x1 ^ x2
		zh[k] = z1 ^ z2
	}
	b.r[h] = uint8(sum >> 1 & 1)
}

func (b *Backend) zeroRow(i int) {
	clear(b.x[i*b.w : i*b.w+b.w])
	clear(b.z[i*b.w : i*b.w+b.w])
	b.r[i] = 0
}

func (b *Backend) copyRow(dst, src int) {
	copy(b.x[dst*b.w:dst*b.w+b.w], b.x[src*b.w:src*b.w+b.w])
	copy(b.z[dst*b.w:dst*b.w+b.w], b.z[src*b.w:src*b.w+b.w])
	b.r[dst] = b.r[src]
}

// Interface conformance checks.
var (
	_ quantum.Backend     = (*Backend)(nil)
	_ quantum.SpecBackend = (*Backend)(nil)
)
