package compiler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

func TestALAPPushesGatesLate(t *testing.T) {
	// q0 has one early X; q1 has a long chain; a final CZ joins them.
	build := func() *ir.Program {
		return &ir.Program{NumQubits: 2, Gates: []ir.Gate{
			lin("X", 0),
			lin("H", 1), lin("H", 1), lin("H", 1), lin("H", 1), lin("H", 1),
			{Name: "CZ", Qubits: []int{0, 1}},
		}}
	}
	asapP := asap(t, build())
	alapP := build()
	if err := schedule(alapP, true); err != nil {
		t.Fatal(err)
	}
	if asapP.Length != alapP.Length {
		t.Fatalf("ALAP changed the makespan: %d vs %d", alapP.Length, asapP.Length)
	}
	// Gate 0 is the X.
	if asapP.Starts[0] != 0 {
		t.Fatalf("ASAP X at %d, want 0", asapP.Starts[0])
	}
	if alapP.Starts[0] != 4 {
		t.Fatalf("ALAP X at %d, want 4 (just before the CZ)", alapP.Starts[0])
	}
}

// Property: ALAP preserves per-qubit gate order and never overlaps
// operations, at the same makespan as ASAP.
func TestALAPValidityProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := newRand(seed)
		c := &ir.Program{NumQubits: 4}
		n := int(nRaw)%30 + 3
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				a := rng.Intn(4)
				b := (a + 1 + rng.Intn(3)) % 4
				c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{a, b}})
			} else {
				c.Gates = append(c.Gates, ir.Gate{Name: "X", Qubits: []int{rng.Intn(4)},
					DurationCycles: 1 + rng.Intn(3)})
			}
		}
		if err := schedule(c, false); err != nil {
			return false
		}
		asapLength := c.Length
		if err := schedule(c, true); err != nil || c.Length != asapLength {
			return false
		}
		type iv struct{ s, e int64 }
		busy := map[int][]iv{}
		for i, g := range c.Gates {
			start := c.Starts[i]
			end := start + g.Duration()
			if start < 0 || end > c.Length {
				return false
			}
			for _, q := range g.Qubits {
				for _, o := range busy[q] {
					if start < o.e && o.s < end {
						return false
					}
				}
				if n := len(busy[q]); n > 0 && busy[q][n-1].s >= start {
					return false
				}
				busy[q] = append(busy[q], iv{start, end})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// mapOnto runs the validate and map passes over p in place.
func mapOnto(p *ir.Program, topo *topology.Topology, initial []int) error {
	return (&Pipeline{}).Append(PassValidate(), PassMap(topo, initial)).Run(p)
}

func TestMapAdjacentGatesUntouched(t *testing.T) {
	topo := topology.Surface7()
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{
		lin("H", 0),
		{Name: "CZ", Qubits: []int{0, 1}},
	}}
	// Place virtual 0 on physical 2, virtual 1 on physical 0: (2,0) is an
	// allowed pair.
	if err := mapOnto(c, topo, []int{2, 0}); err != nil {
		t.Fatal(err)
	}
	if c.Layout.SwapCount != 0 {
		t.Fatalf("adjacent placement inserted %d swaps", c.Layout.SwapCount)
	}
	if got := c.Gates[1].Qubits; got[0] != 2 || got[1] != 0 {
		t.Fatalf("CZ operands %v", got)
	}
}

func TestMapRoutesDistantPair(t *testing.T) {
	topo := topology.Surface7()
	// Qubits 2 and 4 are distance 4 apart on surface-7 (2-0/5 ... 3 ... 1/6 ... 4).
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{{Name: "CZ", Qubits: []int{0, 1}}}}
	if err := mapOnto(c, topo, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	if c.Layout.SwapCount == 0 {
		t.Fatal("distant pair routed without swaps")
	}
	// Every two-qubit gate in the output must be an allowed pair (either
	// direction for the symmetric CZ, exact direction for CNOT).
	for _, g := range c.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if _, ok := topo.EdgeID(a, b); !ok {
			t.Fatalf("emitted %s on non-edge (%d,%d)", g.Name, a, b)
		}
	}
}

// Semantic equivalence: simulating the mapped circuit and permuting by
// the final placement reproduces the virtual circuit's state.
func TestMapSemanticEquivalence(t *testing.T) {
	topo := topology.Surface7()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random 3-qubit virtual circuit with CZ between any pair.
		c := &ir.Program{NumQubits: 3}
		names := []string{"X", "H", "X90", "Ym90", "T"}
		for i := 0; i < 12; i++ {
			if rng.Intn(3) == 0 {
				a := rng.Intn(3)
				b := (a + 1 + rng.Intn(2)) % 3
				c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{a, b}})
			} else {
				c.Gates = append(c.Gates, ir.Gate{Name: names[rng.Intn(len(names))], Qubits: []int{rng.Intn(3)}})
			}
		}
		virtual := c.Gates
		if err := mapOnto(c, topo, []int{2, 0, 3}); err != nil {
			t.Logf("map: %v", err)
			return false
		}
		// Simulate virtual circuit.
		virt := quantum.NewState(3, rand.New(rand.NewSource(1)))
		applyAll(t, virt, virtual)
		// Simulate physical circuit.
		phys := quantum.NewState(topo.NumQubits, rand.New(rand.NewSource(1)))
		applyAll(t, phys, c.Gates)
		// Compare: basis index of the virtual register maps through the
		// final placement; all other physical qubits stay |0>.
		for idx := 0; idx < 1<<3; idx++ {
			pidx := 0
			for v := 0; v < 3; v++ {
				if idx>>uint(v)&1 == 1 {
					pidx |= 1 << uint(c.Layout.Final[v])
				}
			}
			va := virt.Amplitude(idx)
			pa := phys.Amplitude(pidx)
			if d := va - pa; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func applyAll(t *testing.T, s *quantum.State, circuit []ir.Gate) {
	t.Helper()
	gates := map[string]quantum.Matrix2{
		"X": quantum.GateX, "H": quantum.Hadamard, "X90": quantum.GateX90,
		"Ym90": quantum.GateYm90, "T": quantum.TGate,
	}
	for _, g := range circuit {
		switch g.Name {
		case "CZ":
			s.ApplyCZ(g.Qubits[0], g.Qubits[1])
		case "CNOT":
			s.Apply2(quantum.CNOT, g.Qubits[0], g.Qubits[1])
		default:
			u, ok := gates[g.Name]
			if !ok {
				t.Fatalf("unknown gate %q", g.Name)
			}
			s.Apply1(u, g.Qubits[0])
		}
	}
}

func TestMapValidation(t *testing.T) {
	topo := topology.Surface7()
	c := func() *ir.Program { return &ir.Program{NumQubits: 2, Gates: []ir.Gate{lin("X", 0)}} }
	if err := mapOnto(c(), topo, []int{0}); err == nil {
		t.Error("short placement accepted")
	}
	if err := mapOnto(c(), topo, []int{0, 0}); err == nil {
		t.Error("duplicate placement accepted")
	}
	if err := mapOnto(c(), topo, []int{0, 99}); err == nil {
		t.Error("out-of-chip placement accepted")
	}
}

// Mapped circuits feed straight into the emitter: the full backend
// pipeline (map -> schedule -> emit).
func TestMapThenEmit(t *testing.T) {
	topo := topology.Surface7()
	cfg := isa.DefaultConfig()
	c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		lin("H", 0),
		{Name: "CZ", Qubits: []int{0, 1}},
		{Name: "CZ", Qubits: []int{1, 2}},
		{Name: "MEASZ", Qubits: []int{0}, Measure: true},
	}}
	arch := DefaultArch(isa.Default)
	arch.SOMQ = true
	prog := compile(t, c, PipelineConfig{Config: cfg, Topo: topo, Inst: isa.Default,
		Map: true, Layout: []int{2, 0, 3}, Arch: arch, AppendStop: true})
	if len(prog.Instrs) == 0 {
		t.Fatal("empty program")
	}
}
