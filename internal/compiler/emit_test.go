package compiler

import (
	"math/rand"
	"testing"

	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// twoQubit is the executable pipeline configuration for the two-qubit
// chip under the default instantiation's architecture.
func twoQubit(somq bool) PipelineConfig {
	arch := DefaultArch(isa.Default)
	arch.SOMQ = somq
	return PipelineConfig{Config: isa.DefaultConfig(), Topo: topology.TwoQubit(), Inst: isa.Default, Arch: arch}
}

// compileErr drives p through the pipeline cfg assembles.
func compileErr(p *ir.Program, cfg PipelineConfig) (*isa.Program, error) {
	pl, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	if err := pl.Run(p); err != nil {
		return nil, err
	}
	return p.Code, nil
}

// compile is compileErr, failing the test on error.
func compile(t *testing.T, p *ir.Program, cfg PipelineConfig) *isa.Program {
	t.Helper()
	prog, err := compileErr(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestEmitSimpleProgram(t *testing.T) {
	c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		lin("X90", 0),
		lin("X90", 2),
		{Name: "MEASZ", Qubits: []int{0}, Measure: true},
		{Name: "MEASZ", Qubits: []int{2}, Measure: true},
	}}
	cfg := twoQubit(true)
	cfg.AppendStop, cfg.InitWaitCycles = true, 100
	prog := compile(t, c, cfg)
	// Expect: SMIS {0,2}, QWAIT 100 (init exceeds PI), bundle X90,
	// bundle MEASZ, STOP. SOMQ combines both qubits into one mask.
	var kinds []isa.Opcode
	for _, ins := range prog.Instrs {
		kinds = append(kinds, ins.Op)
	}
	want := []isa.Opcode{isa.OpSMIS, isa.OpQWAIT, isa.OpBundle, isa.OpBundle, isa.OpSTOP}
	if len(kinds) != len(want) {
		t.Fatalf("program:\n%s", prog)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("instr %d = %v, want %v\n%s", i, kinds[i], want[i], prog)
		}
	}
	if prog.Instrs[0].Mask != isa.QubitMask(0, 2) {
		t.Errorf("SMIS mask = %#b", prog.Instrs[0].Mask)
	}
	if prog.Instrs[1].Imm != 100 {
		t.Errorf("init QWAIT = %d", prog.Instrs[1].Imm)
	}
	// MEASZ reuses the same S register: no second SMIS.
	if prog.Instrs[3].QOps[0].Name != "MEASZ" || prog.Instrs[3].QOps[0].Target != prog.Instrs[2].QOps[0].Target {
		t.Errorf("register reuse failed:\n%s", prog)
	}
}

func TestEmitTwoQubitGate(t *testing.T) {
	c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		lin("H", 0),
		{Name: "CZ", Qubits: []int{2, 0}},
	}}
	cfg := twoQubit(false)
	cfg.AppendStop = true
	prog := compile(t, c, cfg)
	var smit *isa.Instr
	for i := range prog.Instrs {
		if prog.Instrs[i].Op == isa.OpSMIT {
			smit = &prog.Instrs[i]
		}
	}
	if smit == nil {
		t.Fatalf("no SMIT emitted:\n%s", prog)
	}
	if smit.Mask != 1<<0 { // edge 0 = (2,0) on the two-qubit chip
		t.Errorf("SMIT mask = %#b", smit.Mask)
	}
}

func TestEmitRejectsUnmappedPair(t *testing.T) {
	c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{{Name: "CZ", Qubits: []int{0, 1}}}}
	if _, err := compileErr(c, twoQubit(false)); err == nil {
		t.Fatal("pair (0,1) is not an allowed edge and must be rejected")
	}
}

func TestEmitRejectsUnconfiguredOp(t *testing.T) {
	c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{lin("WOBBLE", 0)}}
	if _, err := compileErr(c, twoQubit(false)); err == nil {
		t.Fatal("unconfigured operation must be rejected")
	}
}

// The emitted program must encode cleanly to binary (all fields in range).
func TestEmitEncodes(t *testing.T) {
	c := &ir.Program{NumQubits: 3}
	rng := newRand(3)
	names := []string{"X", "Y", "X90", "Ym90", "H"}
	for i := 0; i < 50; i++ {
		q := []int{0, 2}[rng.Intn(2)]
		c.Gates = append(c.Gates, lin(names[rng.Intn(len(names))], q))
	}
	cfg := twoQubit(true)
	cfg.AppendStop, cfg.InitWaitCycles = true, 10000
	prog := compile(t, c, cfg)
	if _, err := isa.EncodeProgram(prog, cfg.Config); err != nil {
		t.Fatalf("emitted program does not encode: %v", err)
	}
}

func TestRegAllocLRU(t *testing.T) {
	a := newRegAlloc(2)
	r0, fresh := a.get(0b001)
	if !fresh || r0 != 0 {
		t.Fatalf("first alloc: %d,%v", r0, fresh)
	}
	r1, fresh := a.get(0b010)
	if !fresh || r1 != 1 {
		t.Fatalf("second alloc: %d,%v", r1, fresh)
	}
	// Hit keeps the register.
	if r, fresh := a.get(0b001); fresh || r != r0 {
		t.Fatalf("hit: %d,%v", r, fresh)
	}
	// Third mask evicts the least recently used (0b010).
	r2, fresh := a.get(0b100)
	if !fresh || r2 != r1 {
		t.Fatalf("eviction picked %d, want %d", r2, r1)
	}
	// 0b010 is gone: reallocating it is fresh again.
	if _, fresh := a.get(0b010); !fresh {
		t.Fatal("evicted mask still resident")
	}
}
