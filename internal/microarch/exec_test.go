package microarch

import (
	"fmt"
	"strings"
	"testing"

	"eqasm/internal/isa"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// LDI + LDUI build arbitrary 32-bit constants: Rd = Imm[14..0]::Rs[16..0]
// (Table 1).
func TestLDUIBuildsFullWordConstants(t *testing.T) {
	m, a := newTwoQubitMachine(t, Config{})
	// Target: 0xDEADBEEF = upper 15 bits 0b110111101010110, lower 17 bits
	// 0b11101111011101111.
	upper := int32(0xDEADBEEF >> 17)
	lower := int32(0xDEADBEEF & 0x1FFFF)
	run(t, m, a, `
LDI R1, `+itoa(lower)+`
LDUI R1, `+itoa(upper)+`, R1
STOP
`)
	if got := m.GPR(1); got != 0xDEADBEEF {
		t.Fatalf("built constant %#x, want 0xDEADBEEF", got)
	}
}

func itoa(v int32) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var buf [12]byte
	i := len(buf)
	u := uint32(v)
	if neg {
		u = uint32(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// QWAITR uses only the least significant 20 bits of the register
// (Section 4.2), so a garbage upper half does not stall for hours.
func TestQWAITRTruncation(t *testing.T) {
	m, a := newTwoQubitMachine(t, Config{})
	run(t, m, a, `
SMIS S0, {0}
LDI R1, 5
LDUI R1, 0x7000, R1  # poison the upper bits: value = 0x7000<<17 | 5
X S0
QWAITR R1
X S0
STOP
`)
	// Wait must be 5 cycles, not 0x7000<<17.
	st := m.Stats()
	if st.FinalTimeNs > 2_000_000 {
		t.Fatalf("final time %d ns: QWAITR did not truncate", st.FinalTimeNs)
	}
	if p := m.Backend().Prob1(0); p > 1e-9 {
		t.Fatalf("double X should return to |0>: P1=%v", p)
	}
}

// The last-two-equal execution flag (instantiation logic 4) gates an
// operation on agreement of the last two measurements.
func TestLastTwoEqualFlag(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep string // state before each of two measurements
		want int64  // cancelled count for the CEQ_X
	}{
		// |0> measured twice: equal -> executes.
		{"equal", "I S0", 0},
		// Flip between measurements: unequal -> cancelled.
		{"unequal", "X S0", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, a := newTwoQubitMachine(t, Config{})
			run(t, m, a, `
SMIS S0, {0}
MEASZ S0
QWAIT 20
`+tc.prep+`
MEASZ S0
QWAIT 50
CEQ_X S0
QWAIT 20
STOP
`)
			if got := m.Stats().OpsCancelled; got != tc.want {
				t.Fatalf("cancelled = %d, want %d", got, tc.want)
			}
		})
	}
}

// Before two measurements have finished, the last-two-equal flag is
// undefined and must read as 0 (operation cancelled).
func TestLastTwoEqualNeedsHistory(t *testing.T) {
	m, a := newTwoQubitMachine(t, Config{})
	run(t, m, a, `
SMIS S0, {0}
MEASZ S0
QWAIT 50
CEQ_X S0
QWAIT 20
STOP
`)
	if got := m.Stats().OpsCancelled; got != 1 {
		t.Fatalf("cancelled = %d, want 1 (only one measurement in history)", got)
	}
}

// The data memory is the host communication channel (Section 2.3.1):
// the host deposits a parameter, the program computes on it and stores a
// result the host reads back.
func TestDataMemoryHostCommunication(t *testing.T) {
	m, a := newTwoQubitMachine(t, Config{})
	p, err := a.Assemble(`
LDI R1, 0
LD R2, R1(0)       # read host parameter
ADD R3, R2, R2     # double it
ST R3, R1(4)       # publish the result
STOP
`)
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(p)
	if err := m.WriteWord(0, 21); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadWord(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("result = %d, want 42", v)
	}
}

// FBR fetches a comparison flag into a GPR so it can join arithmetic
// (Table 1's stated purpose).
func TestFBRFeedsArithmetic(t *testing.T) {
	m, a := newTwoQubitMachine(t, Config{})
	run(t, m, a, `
LDI R1, 3
LDI R2, 3
CMP R1, R2
FBR EQ, R3       # 1
FBR NE, R4       # 0
ADD R5, R3, R4   # 1
FBR ALWAYS, R6   # 1
FBR NEVER, R7    # 0
STOP
`)
	for r, want := range map[int]uint32{3: 1, 4: 0, 5: 1, 6: 1, 7: 0} {
		if got := m.GPR(r); got != want {
			t.Errorf("R%d = %d, want %d", r, got, want)
		}
	}
}

// A program can use the execution-flag mechanism and CFC on the same
// measurement: the flags update on the fast path, Qi on the slow one.
func TestFlagAndQiFromSameMeasurement(t *testing.T) {
	m, a := newTwoQubitMachine(t, Config{RecordDeviceOps: true})
	run(t, m, a, `
SMIS S0, {0}
X S0
MEASZ S0
QWAIT 50
C_X S0            # fast path: executes (last result 1), resets qubit
FMR R1, Q0        # slow path: reads the same result
QWAIT 20
MEASZ S0
QWAIT 20
STOP
`)
	if got := m.GPR(1); got != 1 {
		t.Fatalf("FMR read %d, want 1", got)
	}
	recs := m.Measurements()
	if len(recs) != 2 || recs[1].Result != 0 {
		t.Fatalf("reset verification failed: %+v", recs)
	}
}

// The machine accepts a user-supplied backend (dependency injection for
// alternative chip models).
func TestCustomBackendInjection(t *testing.T) {
	b := quantum.NewSVBackend(3, quantum.Ideal(), 5)
	m, err := New(Config{
		Topo:     topology.TwoQubit(),
		OpConfig: isa.DefaultConfig(),
		Backend:  b,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend() != b {
		t.Fatal("injected backend not used")
	}
}

func TestAccessorsAndLoadBinary(t *testing.T) {
	m, a := newTwoQubitMachine(t, Config{})
	words, err := a.AssembleToBinary("SMIT T5, {(2, 0)}\nLDI R1, 9\nCMP R1, R1\nSTOP")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadBinary(words); err != nil {
		t.Fatal(err)
	}
	m.SetGPR(2, 77)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.GPR(2) != 77 {
		t.Error("SetGPR value lost")
	}
	if m.TReg(5) != 1 {
		t.Errorf("TReg(5) = %d", m.TReg(5))
	}
	if !m.ComparisonFlags().Test(isa.CondEQ) {
		t.Error("comparison flags not visible")
	}
	if m.NowNs() <= 0 {
		t.Error("NowNs")
	}
	if m.CycleNs() != 20 {
		t.Errorf("CycleNs = %d", m.CycleNs())
	}
	// Garbage binaries are rejected.
	if err := m.LoadBinary([]uint32{uint32(0x3F) << 25}); err == nil {
		t.Error("garbage binary accepted")
	}
}

// Running before any program upload is an error, not a crash.
func TestRunWithoutProgram(t *testing.T) {
	m, _ := newTwoQubitMachine(t, Config{})
	if err := m.Run(); err == nil {
		t.Fatal("Run without a loaded program succeeded")
	}
}

func TestStringersMicroarch(t *testing.T) {
	for _, s := range []fmt.Stringer{SelNone, SelSrc, SelTgt, SelSingle,
		RoleSingle, RoleSrc, RoleTgt, RoleMeasure} {
		if s.String() == "" {
			t.Error("empty name")
		}
	}
	op := DeviceOp{TimeNs: 100, Cycle: 5, Channel: isa.ChanMicrowave,
		OpName: "X", Qubit: 1, Cancelled: true}
	if got := op.String(); !strings.Contains(got, "cancelled") || !strings.Contains(got, "X") {
		t.Errorf("DeviceOp rendering: %q", got)
	}
}

// QWAIT 0 keeps the timing point (Section 3.1.2): an op on ANOTHER qubit
// with PI 0 after QWAIT 0 shares the point of the previous op, while the
// same qubit would collide (covered by TestOperationCollision).
func TestQWAITZeroKeepsPoint(t *testing.T) {
	m, a := newTwoQubitMachine(t, Config{RecordDeviceOps: true})
	run(t, m, a, `
SMIS S0, {0}
SMIS S2, {2}
X S0
QWAIT 0
0, Y S2
STOP
`)
	tr := m.DeviceTrace()
	if len(tr) != 2 || tr[0].Cycle != tr[1].Cycle {
		t.Fatalf("QWAIT 0 moved the point: %v", tr)
	}
}
