package compiler

import (
	"reflect"
	"testing"

	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

func TestLiftRecoversGates(t *testing.T) {
	cfg := isa.DefaultConfig()
	topo := topology.TwoQubit()
	circ := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		lin("H", 0),
		lin("X90", 2),
		{Name: "CZ", Qubits: []int{2, 0}},
		{Name: "MEASZ", Qubits: []int{0}, Measure: true},
	}}
	pc := twoQubit(true)
	pc.AppendStop, pc.InitWaitCycles = true, 100
	prog := compile(t, circ, pc)
	lifted, err := Lift(prog, cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	// Same gates, schedule order; timing stripped.
	var names []string
	for _, g := range lifted.Gates {
		names = append(names, g.Name)
	}
	want := []string{"H", "X90", "CZ", "MEASZ"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("lifted gates %v, want %v", names, want)
	}
	cz := lifted.Gates[2]
	if cz.Qubits[0] != 2 || cz.Qubits[1] != 0 {
		t.Fatalf("CZ operands %v", cz.Qubits)
	}
	if !lifted.Gates[3].Measure {
		t.Fatal("measurement flag lost")
	}
}

// Lift(Emit(c)) preserves the per-qubit gate sequences of the schedule.
func TestLiftEmitRoundTrip(t *testing.T) {
	cfg := isa.DefaultConfig()
	topo := topology.TwoQubit()
	circ := &ir.Program{NumQubits: 3}
	names := []string{"X", "Y90", "H", "Xm90"}
	for i := 0; i < 20; i++ {
		q := []int{0, 2}[i%2]
		circ.Gates = append(circ.Gates, lin(names[i%len(names)], q))
		if i%7 == 3 {
			circ.Gates = append(circ.Gates, ir.Gate{Name: "CZ", Qubits: []int{2, 0}})
		}
	}
	pc := twoQubit(true)
	pc.AppendStop = true
	prog := compile(t, circ, pc)
	lifted, err := Lift(prog, cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	perQubit := func(gates []ir.Gate) map[int][]string {
		out := map[int][]string{}
		for _, g := range gates {
			for _, q := range g.Qubits {
				out[q] = append(out[q], g.Name)
			}
		}
		return out
	}
	// Compare against the *schedule* order (the emitter reorders within
	// timing points, which is semantics preserving).
	var scheduled []ir.Gate
	for _, i := range circ.Order {
		scheduled = append(scheduled, circ.Gates[i])
	}
	got, want := perQubit(lifted.Gates), perQubit(scheduled)
	for q := range want {
		if !reflect.DeepEqual(got[q], want[q]) {
			t.Fatalf("qubit %d sequence %v, want %v", q, got[q], want[q])
		}
	}
}

func TestLiftRejectsControlFlow(t *testing.T) {
	cfg := isa.DefaultConfig()
	topo := topology.TwoQubit()
	p := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpBR, Cond: isa.CondAlways, Imm: 1},
	}}
	if _, err := Lift(p, cfg, topo); err == nil {
		t.Fatal("branching program lifted to a static circuit")
	}
	p = &isa.Program{Instrs: []isa.Instr{{Op: isa.OpFMR, Rd: 1, Qi: 0}}}
	if _, err := Lift(p, cfg, topo); err == nil {
		t.Fatal("feedback program lifted to a static circuit")
	}
}

func TestRemap(t *testing.T) {
	c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		lin("H", 0),
		{Name: "CZ", Qubits: []int{2, 0}},
	}}
	r, err := Remap(c, map[int]int{0: 0, 2: 9}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if r.Gates[1].Qubits[0] != 9 || r.Gates[1].Qubits[1] != 0 {
		t.Fatalf("remapped CZ: %v", r.Gates[1].Qubits)
	}
	if _, err := Remap(c, map[int]int{0: 0}, 17); err == nil {
		t.Fatal("unmapped qubit accepted")
	}
	if _, err := Remap(c, map[int]int{0: 99, 2: 1}, 17); err == nil {
		t.Fatal("out-of-range mapping accepted")
	}
}

// surface17Config is the executable pipeline configuration for the
// surface-17 chip under its own instantiation, with a trailing STOP.
func surface17Config() PipelineConfig {
	inst := isa.Surface17Instantiation()
	return PipelineConfig{Config: isa.DefaultConfig(), Topo: topology.Surface17(), Inst: inst,
		Arch: DefaultArch(inst), AppendStop: true}
}

// The full cross-platform conversion: a two-qubit-chip program retargets
// onto the surface-17 processor.
func TestRetargetTwoQubitToSurface17(t *testing.T) {
	cfg := isa.DefaultConfig()
	src := topology.TwoQubit()
	circ := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		lin("H", 2),
		{Name: "CZ", Qubits: []int{2, 0}},
		lin("H", 2),
		{Name: "MEASZ", Qubits: []int{2}, Measure: true},
	}}
	pc := twoQubit(false)
	pc.AppendStop = true
	prog := compile(t, circ, pc)
	dst := surface17Config()
	// Chip qubit 2 -> surface-17 ancilla 9, chip qubit 0 -> data 0:
	// (9, 0) is an allowed coupling.
	out, err := Retarget(prog, cfg, src, dst, map[int]int{2: 9, 0: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The retargeted binary must encode under the surface-17
	// instantiation.
	if _, err := dst.Inst.EncodeProgram(out, cfg); err != nil {
		t.Fatalf("retargeted program does not encode: %v", err)
	}
	// And its SMIT must address the (9,0) edge.
	found := false
	id, _ := topology.Surface17().EdgeID(9, 0)
	for _, ins := range out.Instrs {
		if ins.Op == isa.OpSMIT && ins.Mask == 1<<uint(id) {
			found = true
		}
	}
	if !found {
		t.Fatal("retargeted program does not address the mapped pair")
	}
}

// Retargeting an unmappable pair fails loudly (a routing pass would be
// needed).
func TestRetargetRejectsDisallowedPair(t *testing.T) {
	cfg := isa.DefaultConfig()
	src := topology.TwoQubit()
	circ := &ir.Program{NumQubits: 3, Gates: []ir.Gate{{Name: "CZ", Qubits: []int{2, 0}}}}
	pc := twoQubit(false)
	pc.AppendStop = true
	prog := compile(t, circ, pc)
	// Data qubits 0 and 1 are never directly coupled.
	if _, err := Retarget(prog, cfg, src, surface17Config(), map[int]int{2: 0, 0: 1}); err == nil {
		t.Fatal("unroutable retarget accepted")
	}
}
