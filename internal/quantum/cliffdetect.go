package quantum

import (
	"fmt"
	"sync"
)

// Clifford recognition for the stabilizer backend and the plan layer's
// CliffordOnly stamp. A unitary is Clifford exactly when conjugation maps
// every Pauli operator to a (signed) Pauli operator, so the recognizer
// conjugates the Pauli generators (X and Z per operand) through the
// unitary and pattern-matches the results. When all generator images are
// signed Paulis the gate is Clifford, and those images determine the
// whole conjugation action: the recognizer tabulates the image of every
// hermitian Pauli letter combination so the tableau simulator can apply
// any Clifford gate in a single pass with one table lookup per row.
//
// The tables are phase-free by construction — generator images are
// hermitian, so signs are +-1 — and independent of the unitary's global
// phase. Recognition is numeric with a tight tolerance (the configured
// gate set stores rotations computed through math.Cos/Sin, so entries
// like cos(pi/2) are only zero to ~1e-16). The execution-plan layer
// resolves each site's table once, at build or bind time, and carries
// it on the site's kernel spec, so recognition stays off the shot path.
// Two-qubit tables are memoized per distinct matrix value (they are
// costly to build, and two-qubit unitaries come from the configured gate
// set); single-qubit tables are cheap and rebuilt on demand, so sweeps
// over fresh rotation angles do not grow a process-wide cache.

// cliffTol bounds the per-entry deviation accepted when matching a
// conjugated generator against a signed Pauli. Gate unitaries come from
// closed-form constants or trig evaluation, so true Cliffords match to
// ~1e-15; the nearest non-Clifford gate in any calibrated set (for
// example a rotation one degree off) misses by orders of magnitude more.
const cliffTol = 1e-9

// NonCliffordError reports a unitary outside the Clifford group reaching
// the stabilizer-tableau backend, which can only represent stabilizer
// states. Execution layers recover it into an ordinary machine fault so
// a forced tableau run of a non-Clifford program fails cleanly.
type NonCliffordError struct {
	// Gate describes the offending operation (mnemonic or matrix form).
	Gate string
}

func (e *NonCliffordError) Error() string {
	return fmt.Sprintf("quantum: %s is not a Clifford operation; the stabilizer backend cannot apply it", e.Gate)
}

// PauliImage1 is a signed hermitian single-qubit Pauli: the image of a
// tableau row's letter on the acted-on qubit. X and Z are the symplectic
// bits (X=Z=1 encodes Y); Sign is 1 when the image carries a -1 phase.
type PauliImage1 struct {
	X, Z, Sign uint8
}

// Cliff1 tabulates the conjugation action U P U^dag of a single-qubit
// Clifford over the four hermitian letters, indexed by x | z<<1
// (0=I, 1=X, 2=Z, 3=Y).
type Cliff1 struct {
	Img [4]PauliImage1
}

// PauliImage2 is a signed hermitian two-qubit Pauli: per-qubit symplectic
// bits for the pair's (a, b) operands plus a -1 sign bit.
type PauliImage2 struct {
	XA, ZA, XB, ZB, Sign uint8
}

// Cliff2 tabulates the conjugation action of a two-qubit Clifford over
// the sixteen hermitian letter pairs, indexed by
// xa | za<<1 | xb<<2 | zb<<3.
type Cliff2 struct {
	Img [16]PauliImage2
}

var cliff2Cache sync.Map // Matrix4 -> *Cliff2 (nil entry = not Clifford)

// CliffordImage1 resolves a single-qubit unitary to its Clifford
// conjugation table, reporting false when the unitary is not a Clifford
// operation. Each call builds a fresh table (see the memoization note
// above).
func CliffordImage1(u Matrix2) (*Cliff1, bool) {
	c := buildCliff1(u)
	return c, c != nil
}

// CliffordImage2 resolves a two-qubit unitary to its Clifford conjugation
// table, reporting false when the unitary is not a Clifford operation.
// Results are memoized per matrix value.
func CliffordImage2(u Matrix4) (*Cliff2, bool) {
	if v, ok := cliff2Cache.Load(u); ok {
		c, _ := v.(*Cliff2)
		return c, c != nil
	}
	c := buildCliff2(u)
	cliff2Cache.Store(u, c)
	return c, c != nil
}

// pauliProd is a Pauli in i^p * X^x Z^z product form (per qubit), the
// representation under which Pauli multiplication is additive. Hermitian
// letters embed with p = x&z (Y = i X Z); signed hermitian images add
// p += 2 for a -1 sign.
type pauliProd struct {
	p        uint8 // power of i, mod 4
	x, z     uint8 // qubit a (and the only qubit for 1q work)
	xb, zb   uint8 // qubit b (2q work)
	twoQubit bool
}

func hermToProd1(x, z, sign uint8) pauliProd {
	return pauliProd{p: (x&z + 2*sign) & 3, x: x, z: z}
}

// mulProd multiplies a*b in product form: commuting X^x Z^z blocks past
// each other contributes i^(2*z_a*x_b) per qubit.
func mulProd(a, b pauliProd) pauliProd {
	p := (a.p + b.p + 2*(a.z&b.x) + 2*(a.zb&b.xb)) & 3
	return pauliProd{
		p: p, x: a.x ^ b.x, z: a.z ^ b.z,
		xb: a.xb ^ b.xb, zb: a.zb ^ b.zb,
		twoQubit: a.twoQubit || b.twoQubit,
	}
}

// prodToHerm converts back to hermitian-letter-plus-sign form; ok is
// false if the residual phase is imaginary (cannot happen for images of
// hermitian operators under unitary conjugation, kept as a guard).
func prodToHerm(a pauliProd) (sign uint8, ok bool) {
	nY := a.x&a.z + a.xb&a.zb
	rel := (a.p - nY) & 3
	if rel&1 != 0 {
		return 0, false
	}
	return rel >> 1, true
}

// matchPauli1 matches m against +-{X, Y, Z}, returning the symplectic
// bits and sign. Identity never matches: conjugation of a non-identity
// hermitian Pauli cannot reach it.
func matchPauli1(m Matrix2) (x, z, sign uint8, ok bool) {
	letters := [3]struct {
		x, z uint8
		mat  Matrix2
	}{
		{1, 0, PauliX},
		{0, 1, PauliZ},
		{1, 1, PauliY},
	}
	for _, l := range letters {
		if m.ApproxEqual(l.mat, cliffTol) {
			return l.x, l.z, 0, true
		}
		if m.ApproxEqual(l.mat.Scale(-1), cliffTol) {
			return l.x, l.z, 1, true
		}
	}
	return 0, 0, 0, false
}

func buildCliff1(u Matrix2) *Cliff1 {
	if !u.IsUnitary(cliffTol) {
		return nil
	}
	ud := u.Adjoint()
	conj := func(p Matrix2) Matrix2 { return u.Mul(p).Mul(ud) }
	xx, xz, xs, ok := matchPauli1(conj(PauliX))
	if !ok {
		return nil
	}
	zx, zz, zs, ok := matchPauli1(conj(PauliZ))
	if !ok {
		return nil
	}
	imgX := hermToProd1(xx, xz, xs)
	imgZ := hermToProd1(zx, zz, zs)
	c := &Cliff1{}
	c.Img[1] = PauliImage1{X: xx, Z: xz, Sign: xs}
	c.Img[2] = PauliImage1{X: zx, Z: zz, Sign: zs}
	// Y = i X Z, so img(Y) = i img(X) img(Z).
	y := mulProd(imgX, imgZ)
	y.p = (y.p + 1) & 3
	ys, ok := prodToHerm(y)
	if !ok {
		return nil
	}
	c.Img[3] = PauliImage1{X: y.x, Z: y.z, Sign: ys}
	return c
}

// mul4 and adjoint4 are the Matrix4 analogues of Matrix2.Mul/Adjoint,
// needed only for recognition (never on a hot path).
func mul4(a, b Matrix4) Matrix4 {
	var c Matrix4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s complex128
			for k := 0; k < 4; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}

func adjoint4(a Matrix4) Matrix4 {
	var c Matrix4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c[i][j] = complex(real(a[j][i]), -imag(a[j][i]))
		}
	}
	return c
}

func approxEqual4(a, b Matrix4, tol float64) bool {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d := a[i][j] - b[i][j]
			if real(d)*real(d)+imag(d)*imag(d) > tol*tol {
				return false
			}
		}
	}
	return true
}

// kron22 builds a (x) b in the Matrix4 basis (first label = qubit a).
func kron22(a, b Matrix2) Matrix4 {
	var c Matrix4
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				for l := 0; l < 2; l++ {
					c[i*2+k][j*2+l] = a[i][j] * b[k][l]
				}
			}
		}
	}
	return c
}

var herm2Letters = [4]Matrix2{Identity, PauliX, PauliZ, PauliY}

// matchPauli2 matches m against the 15 signed non-identity two-qubit
// hermitian Paulis.
func matchPauli2(m Matrix4) (img pauliProd, ok bool) {
	for k := 1; k < 16; k++ {
		xa, za := uint8(k&1), uint8(k>>1&1)
		xb, zb := uint8(k>>2&1), uint8(k>>3&1)
		p := kron22(herm2Letters[k&3], herm2Letters[k>>2&3])
		for sign := uint8(0); sign < 2; sign++ {
			cand := p
			if sign == 1 {
				for i := range cand {
					for j := range cand[i] {
						cand[i][j] = -cand[i][j]
					}
				}
			}
			if approxEqual4(m, cand, cliffTol) {
				return pauliProd{
					p: (xa&za + xb&zb + 2*sign) & 3,
					x: xa, z: za, xb: xb, zb: zb,
					twoQubit: true,
				}, true
			}
		}
	}
	return pauliProd{}, false
}

func isUnitary4(a Matrix4) bool {
	var id Matrix4
	for i := range id {
		id[i][i] = 1
	}
	return approxEqual4(mul4(adjoint4(a), a), id, cliffTol)
}

func buildCliff2(u Matrix4) *Cliff2 {
	if !isUnitary4(u) {
		return nil
	}
	ud := adjoint4(u)
	conj := func(p Matrix4) pauliProd {
		img, ok := matchPauli2(mul4(mul4(u, p), ud))
		if !ok {
			return pauliProd{p: 255}
		}
		return img
	}
	// Generator images: X and Z on each operand.
	gens := [4]pauliProd{
		conj(kron22(PauliX, Identity)), // X_a
		conj(kron22(PauliZ, Identity)), // Z_a
		conj(kron22(Identity, PauliX)), // X_b
		conj(kron22(Identity, PauliZ)), // Z_b
	}
	for _, g := range gens {
		if g.p == 255 {
			return nil
		}
	}
	imgXa, imgZa, imgXb, imgZb := gens[0], gens[1], gens[2], gens[3]
	identity := pauliProd{twoQubit: true}
	// Letter images per operand, indexed x | z<<1; Y via i X Z.
	letter := func(imgX, imgZ pauliProd) [4]pauliProd {
		var out [4]pauliProd
		out[0] = identity
		out[1] = imgX
		out[2] = imgZ
		y := mulProd(imgX, imgZ)
		y.p = (y.p + 1) & 3
		out[3] = y
		return out
	}
	la := letter(imgXa, imgZa)
	lb := letter(imgXb, imgZb)
	c := &Cliff2{}
	for k := 0; k < 16; k++ {
		img := mulProd(la[k&3], lb[k>>2&3])
		sign, ok := prodToHerm(img)
		if !ok {
			return nil
		}
		c.Img[k] = PauliImage2{
			XA: img.x, ZA: img.z, XB: img.xb, ZB: img.zb, Sign: sign,
		}
	}
	return c
}
