package plan

import (
	"strings"
	"testing"

	"eqasm/internal/isa"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

func buildFor(t *testing.T, instrs ...isa.Instr) *Executable {
	t.Helper()
	ex, err := Build(&isa.Program{Instrs: instrs}, topology.TwoQubit(), isa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestBuildLowersOperands(t *testing.T) {
	ex := buildFor(t,
		isa.Instr{Op: isa.OpLDI, Rd: 3, Imm: 42},
		isa.Instr{Op: isa.OpSMIS, Addr: 2, Mask: isa.QubitMask(0, 2)},
		isa.Instr{Op: isa.OpSMIT, Addr: 1, Mask: 1},
		isa.NewBundle(2, isa.QOp{Name: "H", Target: 2}, isa.QOp{Name: "MEASZ", Target: 2}),
		isa.Instr{Op: isa.OpSTOP},
	)
	if ex.Len() != 5 {
		t.Fatalf("lowered %d instructions, want 5", ex.Len())
	}
	ins := ex.Instrs()
	if ins[0].Op != isa.OpLDI || ins[0].Rd != 3 || ins[0].Imm != 42 {
		t.Fatalf("LDI lowered wrong: %+v", ins[0])
	}
	smis := ins[1]
	if smis.Targets == nil || len(smis.Targets.Qubits) != 2 ||
		smis.Targets.Qubits[0] != 0 || smis.Targets.Qubits[1] != 2 {
		t.Fatalf("SMIS mask not expanded: %+v", smis.Targets)
	}
	smit := ins[2]
	if smit.Targets == nil || len(smit.Targets.Pairs) != 1 ||
		(smit.Targets.Pairs[0] != Pair{Src: 2, Tgt: 0}) {
		t.Fatalf("SMIT mask not expanded: %+v", smit.Targets)
	}
	bu := ins[3].Bundle
	if bu == nil || bu.PI != 2 || len(bu.Ops) != 2 {
		t.Fatalf("bundle not lowered: %+v", bu)
	}
	h := bu.Ops[0]
	if h.Def == nil || h.Def.Name != "H" || h.Kind != KindGate1 || len(h.Micro) != 1 {
		t.Fatalf("H op wrong: %+v", h)
	}
	if h.Spec1.Kind != quantum.Gate1Hadamard {
		t.Fatalf("H classified %v, want Hadamard kernel", h.Spec1.Kind)
	}
	if h.DurNs != 20 {
		t.Fatalf("H duration %v ns, want 20", h.DurNs)
	}
	meas := bu.Ops[1]
	if meas.Kind != KindMeasure || meas.DurCycles != isa.DefaultMeasureCycles {
		t.Fatalf("MEASZ op wrong: %+v", meas)
	}
}

func TestBuildClassifiesTwoQubitKernels(t *testing.T) {
	ex := buildFor(t,
		isa.Instr{Op: isa.OpSMIT, Addr: 0, Mask: 1},
		isa.NewBundle(0, isa.QOp{Name: "CZ", Target: 0}),
		isa.NewBundle(0, isa.QOp{Name: "CNOT", Target: 0}),
	)
	cz := ex.Instrs()[1].Bundle.Ops[0]
	if cz.Kind != KindGate2 || cz.Spec2.Kind != quantum.Gate2CPhase {
		t.Fatalf("CZ classified %v, want controlled-phase kernel", cz.Spec2.Kind)
	}
	cnot := ex.Instrs()[2].Bundle.Ops[0]
	if cnot.Spec2.Kind != quantum.Gate2Perm {
		t.Fatalf("CNOT classified %v, want permutation kernel", cnot.Spec2.Kind)
	}
	if len(cz.Micro) != 2 {
		t.Fatalf("two-qubit op carries %d micro-ops, want 2", len(cz.Micro))
	}
}

func TestBuildDedupesTargetSets(t *testing.T) {
	ex := buildFor(t,
		isa.Instr{Op: isa.OpSMIS, Addr: 0, Mask: 1},
		isa.Instr{Op: isa.OpSMIS, Addr: 5, Mask: 1},
		isa.Instr{Op: isa.OpSMIS, Addr: 6, Mask: 0},
	)
	ins := ex.Instrs()
	if ins[0].Targets != ins[1].Targets {
		t.Fatal("identical masks expanded twice")
	}
	if ins[2].Targets != EmptyTargets {
		t.Fatal("zero mask did not reuse EmptyTargets")
	}
}

func TestBuildDefersConfigErrors(t *testing.T) {
	// Unknown operation names and invalid masks must not fail the
	// build: the machine only faults when the instruction executes.
	ex := buildFor(t,
		isa.Instr{Op: isa.OpSMIS, Addr: 0, Mask: 1 << 60},
		isa.Instr{Op: isa.OpSMIT, Addr: 0, Mask: 1 << 60},
		isa.NewBundle(0, isa.QOp{Name: "FROB", Target: 0}),
	)
	ins := ex.Instrs()
	if !strings.Contains(ins[0].Targets.SingleErr, "beyond the 3-qubit chip") {
		t.Fatalf("single mask error not prepared: %q", ins[0].Targets.SingleErr)
	}
	if !strings.Contains(ins[1].Targets.PairErr, "beyond the chip's 2 allowed pairs") {
		t.Fatalf("pair mask error not prepared: %q", ins[1].Targets.PairErr)
	}
	if !strings.Contains(ins[2].Bundle.Ops[0].ErrMsg, `operation "FROB" is not configured`) {
		t.Fatalf("unknown op error not prepared: %q", ins[2].Bundle.Ops[0].ErrMsg)
	}
}

func TestExpandPairSharedQubit(t *testing.T) {
	// Surface-7 edges 0 and 8 are the two directions of one coupling;
	// selecting both shares its qubits.
	ts := ExpandTargets(1|1<<8, topology.Surface7())
	if !strings.Contains(ts.PairErr, "selects two edges sharing qubit") {
		t.Fatalf("shared-qubit pair error not prepared: %q", ts.PairErr)
	}
	// A mask valid in both roles expands in both roles: edges 0 (2→0)
	// and 6 (4→1) touch disjoint qubits.
	both := ExpandTargets(1|1<<6, topology.Surface7())
	if both.SingleErr != "" || len(both.Qubits) != 2 {
		t.Fatalf("single expansion wrong: %+v", both)
	}
	if both.PairErr != "" || len(both.Pairs) != 2 {
		t.Fatalf("pair expansion wrong: %+v", both)
	}
}

func TestInternControlStore(t *testing.T) {
	cfg := isa.DefaultConfig()
	if InternControlStore(cfg) != InternControlStore(cfg) {
		t.Fatal("control store not interned per configuration")
	}
	def, _ := cfg.ByName("X")
	micro, ok := InternControlStore(cfg).Lookup(def.Opcode)
	if !ok || len(micro) != 1 || micro[0].Role != RoleSingle {
		t.Fatalf("interned store lookup wrong: %+v", micro)
	}
}

func TestBuildNilInputs(t *testing.T) {
	topo, cfg := topology.TwoQubit(), isa.DefaultConfig()
	if _, err := Build(nil, topo, cfg); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := Build(&isa.Program{}, nil, cfg); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := Build(&isa.Program{}, topo, nil); err == nil {
		t.Fatal("nil opconfig accepted")
	}
}
