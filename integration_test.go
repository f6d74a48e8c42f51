// Cross-module integration tests: the compiled-and-executed semantics of
// the full stack (compiler -> assembler/binary -> microarchitecture ->
// chip) must agree with direct simulation of the source circuit, and the
// alternative Surface-17 instantiation must run end to end.
package eqasm_test

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"eqasm/internal/asm"
	"eqasm/internal/benchmarks"
	"eqasm/internal/compiler"
	"eqasm/internal/core"
	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// randomCircuit draws a unitary circuit (no measurements) over the
// two-qubit chip's qubits {0, 2}.
func randomCircuit(rng *rand.Rand, gates int) *ir.Program {
	names := []string{"X", "Y", "X90", "Y90", "Xm90", "Ym90", "H", "S", "T"}
	c := &ir.Program{NumQubits: 3}
	for i := 0; i < gates; i++ {
		if rng.Intn(5) == 0 {
			pair := [][2]int{{2, 0}, {0, 2}}[rng.Intn(2)]
			c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{pair[0], pair[1]}})
		} else {
			q := []int{0, 2}[rng.Intn(2)]
			c.Gates = append(c.Gates, ir.Gate{Name: names[rng.Intn(len(names))], Qubits: []int{q}})
		}
	}
	return c
}

// compileFor drives a circuit through the executable pipeline for the
// chip under its instantiation's architecture with SOMQ and a trailing
// STOP, leaving the schedule and the code on the program.
func compileFor(p *ir.Program, cfg *isa.OpConfig, topo *topology.Topology, inst isa.Instantiation, initWait int) (*isa.Program, error) {
	arch := compiler.DefaultArch(inst)
	arch.SOMQ = true
	pl, err := compiler.NewPipeline(compiler.PipelineConfig{Config: cfg, Topo: topo, Inst: inst,
		Arch: arch, InitWaitCycles: initWait, AppendStop: true})
	if err != nil {
		return nil, err
	}
	if err := pl.Run(p); err != nil {
		return nil, err
	}
	return p.Code, nil
}

// referenceState simulates the scheduled circuit directly, bypassing the
// whole control stack.
func referenceState(t *testing.T, cfg *isa.OpConfig, s *ir.Program) *quantum.State {
	t.Helper()
	st := quantum.NewState(3, rand.New(rand.NewSource(1)))
	for _, i := range s.Order {
		g := s.Gates[i]
		def, ok := cfg.ByName(g.Name)
		if !ok {
			t.Fatalf("unknown op %q", g.Name)
		}
		if g.IsTwoQubit() {
			st.Apply2(def.Unitary2, g.Qubits[0], g.Qubits[1])
		} else {
			st.Apply1(def.Unitary1, g.Qubits[0])
		}
	}
	return st
}

// The central equivalence property: for random circuits, compiling to
// eQASM, encoding to binary, decoding, and executing on the cycle-level
// microarchitecture produces exactly the state of direct simulation.
func TestCompiledExecutionMatchesDirectSimulation(t *testing.T) {
	cfg := isa.DefaultConfig()
	topo := topology.TwoQubit()

	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%30 + 3
		circ := randomCircuit(rng, n)
		prog, err := compileFor(circ, cfg, topo, isa.Default, 0)
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		// Through the binary, like a real upload.
		words, err := isa.EncodeProgram(prog, cfg)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		m, err := microarch.New(microarch.Config{Topo: topo, OpConfig: cfg})
		if err != nil {
			return false
		}
		if err := m.LoadBinary(words); err != nil {
			t.Logf("load: %v", err)
			return false
		}
		if err := m.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		got := m.Backend().(*quantum.SVBackend).State
		want := referenceState(t, cfg, circ)
		return got.Fidelity(want) > 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The Surface-17 instantiation (pair-list SMIT, 17-bit SMIS masks) runs a
// stabilizer parity measurement end to end: ancilla 9 measures the Z
// parity of data qubits 0 and 1.
func TestSurface17ParityMeasurement(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep string
		want int
	}{
		{"even |00>", "", 0},
		{"odd |10>", "X D0", 1},
		{"odd |01>", "X D1", 1},
		{"even |11>", "X D01", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.NewSystem(core.Options{
				Topology:      topology.Surface17(),
				Instantiation: isa.Surface17Instantiation(),
			})
			if err != nil {
				t.Fatal(err)
			}
			prep := ""
			switch tc.prep {
			case "X D0":
				prep = "X S1\n"
			case "X D1":
				prep = "X S2\n"
			case "X D01":
				prep = "X S3\n"
			}
			// S1={0}, S2={1}, S3={0,1}, S0={9} (ancilla).
			src := `
SMIS S0, {9}
SMIS S1, {0}
SMIS S2, {1}
SMIS S3, {0, 1}
SMIT T0, {(9, 0)}
SMIT T1, {(9, 1)}
` + prep + `
H S0
CZ T0
2, CZ T1
2, H S0
MEASZ S0
QWAIT 50
STOP
`
			if err := sys.RunAssembly(src); err != nil {
				t.Fatal(err)
			}
			recs := sys.Machine.Measurements()
			if len(recs) != 1 {
				t.Fatalf("measurements: %+v", recs)
			}
			if recs[0].Qubit != 9 || recs[0].Result != tc.want {
				t.Fatalf("syndrome = q%d:%d, want q9:%d", recs[0].Qubit, recs[0].Result, tc.want)
			}
		})
	}
}

// The Surface-17 binary round-trips through its own instantiation.
func TestSurface17BinaryRoundTrip(t *testing.T) {
	sys, err := core.NewSystem(core.Options{
		Topology:      topology.Surface17(),
		Instantiation: isa.Surface17Instantiation(),
	})
	if err != nil {
		t.Fatal(err)
	}
	words, err := sys.Binary(`
SMIS S0, {9, 16}
SMIT T0, {(9, 0)}
H S0
CZ T0
STOP
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Surface17Instantiation().DecodeProgram(words, sys.OpConfig)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Instrs[0].Mask != 1<<9|1<<16 {
		t.Fatalf("SMIS mask = %#x", prog.Instrs[0].Mask)
	}
	id, _ := topology.Surface17().EdgeID(9, 0)
	if prog.Instrs[1].Mask != 1<<uint(id) {
		t.Fatalf("SMIT mask = %#x", prog.Instrs[1].Mask)
	}
}

// Determinism: the same program with the same seed produces the same
// measurement records.
func TestDeterministicExecution(t *testing.T) {
	run := func() []int {
		sys, err := core.NewSystem(core.Options{Seed: 99, Noise: quantum.NoiseModel{ReadoutError: 0.2}})
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		err = sys.Load("SMIS S0, {0}\nX90 S0\nMEASZ S0\nSTOP")
		if err != nil {
			t.Fatal(err)
		}
		err = sys.RunShots(50, func(_ int, m *microarch.Machine) {
			out = append(out, m.Measurements()[0].Result)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shot %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// The assembler and disassembler are mutually inverse over random valid
// programs (binary fixpoint).
func TestAssemblerDisassemblerFixpointProperty(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Topology: topology.Surface7()})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomAssembly(rng)
		words, err := sys.Binary(src)
		if err != nil {
			t.Logf("assemble failed for:\n%s\n%v", src, err)
			return false
		}
		d := asm.NewDisassembler(sys.OpConfig, sys.Topo)
		text, err := d.Disassemble(words)
		if err != nil {
			return false
		}
		words2, err := sys.Binary(text)
		if err != nil {
			t.Logf("reassemble failed for:\n%s\n%v", text, err)
			return false
		}
		if len(words) != len(words2) {
			return false
		}
		for i := range words {
			if words[i] != words2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomAssembly(rng *rand.Rand) string {
	lines := []string{
		"SMIS S0, {0}",
		"SMIS S1, {1, 4}",
		"SMIT T0, {(2, 0)}",
	}
	names := []string{"X", "Y", "X90", "Ym90", "H", "I"}
	for i := 0; i < 5+rng.Intn(15); i++ {
		switch rng.Intn(6) {
		case 0:
			lines = append(lines, "QWAIT "+itoa(rng.Intn(1000)))
		case 1:
			lines = append(lines, "LDI R"+itoa(rng.Intn(32))+", "+itoa(rng.Intn(5000)-2500))
		case 2:
			lines = append(lines, itoa(rng.Intn(8))+", "+names[rng.Intn(len(names))]+" S0 | "+names[rng.Intn(len(names))]+" S1")
		case 3:
			lines = append(lines, "CZ T0")
		case 4:
			lines = append(lines, "ADD R1, R2, R3")
		default:
			lines = append(lines, names[rng.Intn(len(names))]+" S"+itoa(rng.Intn(2)))
		}
	}
	lines = append(lines, "STOP")
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

func itoa(v int) string { return strconv.Itoa(v) }

// Full-stack QEC at 17-qubit scale: one surface-code syndrome-extraction
// cycle compiled with SOMQ (multi-qubit SMIS masks, multi-pair SMIT
// masks) and executed on the Surface-17 machine. Without errors every
// syndrome reads 0; an injected bit flip fires exactly the adjacent
// stabilizers.
func TestSurface17QECCycleExecution(t *testing.T) {
	topo := topology.Surface17()
	cfg := isa.DefaultConfig()
	ancillas := []int{9, 10, 11, 12, 13, 14, 15, 16}

	build := func(injectOn int) *isa.Program {
		circ := benchmarks.QEC(1)
		if injectOn >= 0 {
			// Prepend the error.
			withErr := &ir.Program{NumQubits: circ.NumQubits}
			withErr.Gates = append(withErr.Gates,
				ir.Gate{Name: "X", Qubits: []int{injectOn}})
			withErr.Gates = append(withErr.Gates, circ.Gates...)
			circ = withErr
		}
		inst := isa.Surface17Instantiation()
		// The initialisation wait gives the pipeline reservation headroom:
		// the SOMQ-split SMIT updates make this workload denser than the
		// sustainable issue rate, the exact R_req > R_allowed effect of
		// Section 1.2 (TestIssueRateViolation exercises the failure mode).
		prog, err := compileFor(circ, cfg, topo, inst, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip through the Surface-17 binary (pair-list SMIT).
		words, err := inst.EncodeProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := inst.DecodeProgram(words, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	runQEC := func(p *isa.Program) map[int]int {
		m, err := microarch.New(microarch.Config{Topo: topo, OpConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(p)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		syn := map[int]int{}
		for _, r := range m.Measurements() {
			syn[r.Qubit] = r.Result
		}
		return syn
	}

	// No error: all syndromes 0.
	syn := runQEC(build(-1))
	if len(syn) != 8 {
		t.Fatalf("measured %d ancillas, want 8", len(syn))
	}
	for _, a := range ancillas {
		if syn[a] != 0 {
			t.Fatalf("clean cycle: ancilla %d fired (%v)", a, syn)
		}
	}
	// Bit flip on data qubit 4 (the centre): exactly its neighbouring
	// stabilizers fire.
	syn = runQEC(build(4))
	for _, a := range ancillas {
		want := 0
		for _, n := range topo.Neighbors(a) {
			if n == 4 {
				want = 1
			}
		}
		if syn[a] != want {
			t.Fatalf("error on q4: ancilla %d read %d, want %d (%v)", a, syn[a], want, syn)
		}
	}
}
