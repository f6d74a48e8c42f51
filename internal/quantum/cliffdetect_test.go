package quantum

import (
	"math"
	"testing"
)

func TestCliffordImage1KnownGates(t *testing.T) {
	// Hadamard: X <-> Z, Y -> -Y.
	h, ok := CliffordImage1(Hadamard)
	if !ok {
		t.Fatal("Hadamard not recognized as Clifford")
	}
	if h.Img[1] != (PauliImage1{X: 0, Z: 1, Sign: 0}) {
		t.Errorf("H: X image = %+v, want Z", h.Img[1])
	}
	if h.Img[2] != (PauliImage1{X: 1, Z: 0, Sign: 0}) {
		t.Errorf("H: Z image = %+v, want X", h.Img[2])
	}
	if h.Img[3] != (PauliImage1{X: 1, Z: 1, Sign: 1}) {
		t.Errorf("H: Y image = %+v, want -Y", h.Img[3])
	}

	// S: X -> Y, Y -> -X, Z -> Z.
	s, ok := CliffordImage1(SGate)
	if !ok {
		t.Fatal("S not recognized as Clifford")
	}
	if s.Img[1] != (PauliImage1{X: 1, Z: 1, Sign: 0}) {
		t.Errorf("S: X image = %+v, want Y", s.Img[1])
	}
	if s.Img[2] != (PauliImage1{X: 0, Z: 1, Sign: 0}) {
		t.Errorf("S: Z image = %+v, want Z", s.Img[2])
	}
	if s.Img[3] != (PauliImage1{X: 1, Z: 0, Sign: 1}) {
		t.Errorf("S: Y image = %+v, want -X", s.Img[3])
	}

	// X90 = exp(-i pi/4 X): Z -> Y... rotation by +90 about x maps
	// Z -> -Y, Y -> Z under U P U^dag with U = exp(-i theta/2 X).
	x90, ok := CliffordImage1(GateX90)
	if !ok {
		t.Fatal("X90 not recognized as Clifford")
	}
	if x90.Img[1] != (PauliImage1{X: 1, Z: 0, Sign: 0}) {
		t.Errorf("X90: X image = %+v, want X", x90.Img[1])
	}
	if x90.Img[2] != (PauliImage1{X: 1, Z: 1, Sign: 1}) {
		t.Errorf("X90: Z image = %+v, want -Y", x90.Img[2])
	}
}

func TestCliffordImage1Rejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		u    Matrix2
	}{
		{"T", TGate},
		{"Rx(0.3)", Rotation(AxisX, 0.3)},
		{"Rz(33deg)", RotationDeg(AxisZ, 33)},
		{"non-unitary", Matrix2{{1, 1}, {0, 1}}},
	} {
		if _, ok := CliffordImage1(tc.u); ok {
			t.Errorf("%s wrongly recognized as Clifford", tc.name)
		}
	}
}

func TestCliffordImage1AcceptsConfiguredCliffords(t *testing.T) {
	for _, tc := range []struct {
		name string
		u    Matrix2
	}{
		{"I", Identity}, {"X", GateX}, {"Y", GateY},
		{"X90", GateX90}, {"Y90", GateY90},
		{"Xm90", GateXm90}, {"Ym90", GateYm90},
		{"H", Hadamard}, {"Z", PauliZ}, {"S", SGate},
		{"PauliX", PauliX}, {"PauliY", PauliY},
	} {
		if _, ok := CliffordImage1(tc.u); !ok {
			t.Errorf("%s not recognized as Clifford", tc.name)
		}
	}
}

func TestCliffordImage2KnownGates(t *testing.T) {
	cnot, ok := CliffordImage2(CNOT)
	if !ok {
		t.Fatal("CNOT not recognized as Clifford")
	}
	// Index = xa | za<<1 | xb<<2 | zb<<3. CNOT (a control, b target):
	// X_a -> X_a X_b, Z_a -> Z_a, X_b -> X_b, Z_b -> Z_a Z_b.
	if cnot.Img[1] != (PauliImage2{XA: 1, XB: 1}) {
		t.Errorf("CNOT: X_a image = %+v, want X_a X_b", cnot.Img[1])
	}
	if cnot.Img[2] != (PauliImage2{ZA: 1}) {
		t.Errorf("CNOT: Z_a image = %+v, want Z_a", cnot.Img[2])
	}
	if cnot.Img[4] != (PauliImage2{XB: 1}) {
		t.Errorf("CNOT: X_b image = %+v, want X_b", cnot.Img[4])
	}
	if cnot.Img[8] != (PauliImage2{ZA: 1, ZB: 1}) {
		t.Errorf("CNOT: Z_b image = %+v, want Z_a Z_b", cnot.Img[8])
	}
	// X_a Z_b -> (X_a X_b)(Z_a Z_b) = -Y_a Y_b: the phase case that
	// exercises the i-power bookkeeping.
	if cnot.Img[9] != (PauliImage2{XA: 1, ZA: 1, XB: 1, ZB: 1, Sign: 1}) {
		t.Errorf("CNOT: X_a Z_b image = %+v, want -Y_a Y_b", cnot.Img[9])
	}

	cz, ok := CliffordImage2(CZ)
	if !ok {
		t.Fatal("CZ not recognized as Clifford")
	}
	if cz.Img[1] != (PauliImage2{XA: 1, ZB: 1}) {
		t.Errorf("CZ: X_a image = %+v, want X_a Z_b", cz.Img[1])
	}
	if cz.Img[4] != (PauliImage2{ZA: 1, XB: 1}) {
		t.Errorf("CZ: X_b image = %+v, want Z_a X_b", cz.Img[4])
	}
	if cz.Img[2] != (PauliImage2{ZA: 1}) || cz.Img[8] != (PauliImage2{ZB: 1}) {
		t.Errorf("CZ: Z images changed: %+v %+v", cz.Img[2], cz.Img[8])
	}
}

func TestCliffordImage2Rejections(t *testing.T) {
	// Controlled-S is not Clifford.
	cs := Matrix4{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1i}}
	if _, ok := CliffordImage2(cs); ok {
		t.Error("controlled-S wrongly recognized as Clifford")
	}
	// sqrt(SWAP) is not Clifford.
	p, m := complex(0.5, 0.5), complex(0.5, -0.5)
	sqrtSwap := Matrix4{{1, 0, 0, 0}, {0, p, m, 0}, {0, m, p, 0}, {0, 0, 0, 1}}
	if _, ok := CliffordImage2(sqrtSwap); ok {
		t.Error("sqrt(SWAP) wrongly recognized as Clifford")
	}
}

func TestCliffordImageIgnoresGlobalPhase(t *testing.T) {
	// e^{i phi} H has the same conjugation action as H.
	u := Hadamard.Scale(complex(math.Cos(0.7), math.Sin(0.7)))
	c, ok := CliffordImage1(u)
	if !ok {
		t.Fatal("phased Hadamard not recognized as Clifford")
	}
	h, _ := CliffordImage1(Hadamard)
	if *c != *h {
		t.Errorf("phased Hadamard image %+v differs from Hadamard %+v", c, h)
	}
}
