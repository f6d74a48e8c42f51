package qumis

import (
	"strings"
	"testing"

	"eqasm/internal/benchmarks"
	"eqasm/internal/compiler"
	"eqasm/internal/ir"
)

func schedule(t *testing.T, c *ir.Program) *ir.Program {
	t.Helper()
	if err := (&compiler.Pipeline{}).Append(compiler.PassValidate(), compiler.PassScheduleASAP()).Run(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateSimple(t *testing.T) {
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{
		{Name: "X", Qubits: []int{0}},
		{Name: "X", Qubits: []int{1}},
		{Name: "Y", Qubits: []int{0}},
	}}
	p, err := Generate(schedule(t, c))
	if err != nil {
		t.Fatal(err)
	}
	// Point c0: X on q0,q1 -> one pulse (same op). Point c1: wait + Y.
	want := []string{"pulse X q0, q1", "wait 1", "pulse Y q0"}
	if len(p.Instrs) != len(want) {
		t.Fatalf("program:\n%s", p)
	}
	for i, w := range want {
		if got := p.Instrs[i].String(); got != w {
			t.Errorf("instr %d = %q, want %q", i, got, w)
		}
	}
}

// Property 2: a pulse carries at most MaxTargets qubits.
func TestTargetFieldLimit(t *testing.T) {
	c := &ir.Program{NumQubits: 7}
	for q := 0; q < 7; q++ {
		c.Gates = append(c.Gates, ir.Gate{Name: "X", Qubits: []int{q}})
	}
	p, err := Generate(schedule(t, c))
	if err != nil {
		t.Fatal(err)
	}
	pulses := 0
	for _, i := range p.Instrs {
		if i.Kind == KindPulse {
			pulses++
			if len(i.Qubits) > MaxTargets {
				t.Fatalf("pulse with %d targets", len(i.Qubits))
			}
		}
	}
	if pulses != 3 { // ceil(7/3)
		t.Fatalf("pulses = %d, want 3", pulses)
	}
}

// Property 3: different parallel operations cannot share an instruction.
func TestNoMixedOperations(t *testing.T) {
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{
		{Name: "X", Qubits: []int{0}},
		{Name: "Y", Qubits: []int{1}},
	}}
	p, err := Generate(schedule(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 2 {
		t.Fatalf("program:\n%s", p)
	}
}

// Property 1: every consecutive timing point costs a wait instruction.
func TestExplicitWaits(t *testing.T) {
	c := &ir.Program{NumQubits: 1, Gates: []ir.Gate{
		{Name: "X", Qubits: []int{0}},
		{Name: "Y", Qubits: []int{0}},
		{Name: "Z", Qubits: []int{0}},
	}}
	p, err := Generate(schedule(t, c))
	if err != nil {
		t.Fatal(err)
	}
	waits := 0
	for _, i := range p.Instrs {
		if i.Kind == KindWait {
			waits++
		}
	}
	if waits != 2 {
		t.Fatalf("waits = %d, want 2 (between 3 points)", waits)
	}
}

func TestMeasureInstr(t *testing.T) {
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{
		{Name: "MEASZ", Qubits: []int{0}, Measure: true},
		{Name: "MEASZ", Qubits: []int{1}, Measure: true},
	}}
	p, err := Generate(schedule(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 1 || p.Instrs[0].Kind != KindMeasure {
		t.Fatalf("program:\n%s", p)
	}
	if !strings.Contains(p.Instrs[0].String(), "measure q0, q1") {
		t.Fatalf("measure rendering: %q", p.Instrs[0])
	}
}

// Headline comparison: eQASM (Config 9, w=2) needs far fewer instructions
// than QuMIS on the paper's RB workload.
func TestEQASMBeatsQuMISOnRB(t *testing.T) {
	s := schedule(t, benchmarks.RB(7, 256, 1))
	r, err := CompareWithEQASM(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reduction < 0.3 {
		t.Fatalf("eQASM reduction over QuMIS = %.2f, want > 0.3 (QuMIS %d vs eQASM %d)",
			r.Reduction, r.QuMIS, r.EQASM)
	}
}

// On sequential SR the gap narrows but eQASM still wins via PI timing.
func TestEQASMBeatsQuMISOnSR(t *testing.T) {
	s := schedule(t, benchmarks.SR(benchmarks.DefaultSR()))
	r, err := CompareWithEQASM(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reduction <= 0 {
		t.Fatalf("eQASM should not lose to QuMIS: %+v", r)
	}
}
