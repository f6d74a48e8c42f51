package compiler_test

// Pipeline parity guard: the pass-based pipeline must emit byte-identical
// eQASM to the pre-refactor two-path compiler. The golden files under
// testdata/golden were generated from the monolithic codegen/emit
// implementation immediately before the refactor (go test -run
// TestGoldenEmit -update regenerates them — only do that deliberately,
// with a parity argument in the commit message).

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eqasm/internal/benchmarks"
	"eqasm/internal/compiler"
	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current compiler")

// goldenCase is one (circuit, pipeline configuration) combination
// covering the compiler_test/emit_test shapes plus the mapped and
// surface-17 paths.
type goldenCase struct {
	name string
	prog func(t *testing.T) *isa.Program
}

func lin(name string, qs ...int) ir.Gate {
	return ir.Gate{Name: name, Qubits: qs}
}

// pipelineConfig is the executable pipeline for a chip under its
// instantiation's adopted architecture with SOMQ as given.
func pipelineConfig(topo *topology.Topology, inst isa.Instantiation, somq bool) compiler.PipelineConfig {
	arch := compiler.DefaultArch(inst)
	arch.SOMQ = somq
	return compiler.PipelineConfig{Config: isa.DefaultConfig(), Topo: topo, Inst: inst, Arch: arch, AppendStop: true}
}

func twoQubitConfig(somq bool, initWait int) compiler.PipelineConfig {
	cfg := pipelineConfig(topology.TwoQubit(), isa.Default, somq)
	cfg.InitWaitCycles = initWait
	return cfg
}

// compile drives the circuit through the pipeline cfg assembles.
func compile(t *testing.T, c *ir.Program, cfg compiler.PipelineConfig) *isa.Program {
	t.Helper()
	pl, err := compiler.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(c); err != nil {
		t.Fatal(err)
	}
	return c.Code
}

// randomCircuit mirrors the shapes used by emit_test.go and
// consistency_test.go: random single-qubit gates, CZs over the (2,0)
// coupling and measurements on the two-qubit validation chip.
func randomCircuit(seed int64, n int, withCZ bool) *ir.Program {
	rng := rand.New(rand.NewSource(seed))
	c := &ir.Program{NumQubits: 3}
	names := []string{"X", "Y", "X90", "Ym90", "H"}
	for i := 0; i < n; i++ {
		switch {
		case withCZ && rng.Intn(6) == 0:
			c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{2, 0}})
		case withCZ && rng.Intn(6) == 1:
			c.Gates = append(c.Gates, ir.Gate{Name: "MEASZ",
				Qubits: []int{[]int{0, 2}[rng.Intn(2)]}, Measure: true})
		default:
			c.Gates = append(c.Gates, ir.Gate{Name: names[rng.Intn(len(names))],
				Qubits: []int{[]int{0, 2}[rng.Intn(2)]}})
		}
	}
	return c
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"simple_somq", func(t *testing.T) *isa.Program {
			c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
				lin("X90", 0), lin("X90", 2),
				{Name: "MEASZ", Qubits: []int{0}, Measure: true},
				{Name: "MEASZ", Qubits: []int{2}, Measure: true},
			}}
			return compile(t, c, twoQubitConfig(true, 100))
		}},
		{"two_qubit", func(t *testing.T) *isa.Program {
			c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
				lin("H", 0), {Name: "CZ", Qubits: []int{2, 0}},
			}}
			return compile(t, c, twoQubitConfig(false, 0))
		}},
		{"bell", func(t *testing.T) *isa.Program {
			c := &ir.Program{Name: "bell", NumQubits: 3, Gates: []ir.Gate{
				lin("H", 0), {Name: "CNOT", Qubits: []int{0, 2}},
				{Name: "MEASZ", Qubits: []int{0}, Measure: true},
				{Name: "MEASZ", Qubits: []int{2}, Measure: true},
			}}
			return compile(t, c, twoQubitConfig(true, 10000))
		}},
		{"random50_somq", func(t *testing.T) *isa.Program {
			return compile(t, randomCircuit(3, 50, false), twoQubitConfig(true, 10000))
		}},
		{"random80_mixed", func(t *testing.T) *isa.Program {
			return compile(t, randomCircuit(7, 80, true), twoQubitConfig(true, 0))
		}},
		{"random80_nosomq", func(t *testing.T) *isa.Program {
			return compile(t, randomCircuit(11, 80, true), twoQubitConfig(false, 0))
		}},
		{"alap_chain", func(t *testing.T) *isa.Program {
			c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
				lin("X", 0), lin("Y", 2), {Name: "CZ", Qubits: []int{2, 0}},
				lin("H", 0),
				{Name: "MEASZ", Qubits: []int{0}, Measure: true},
			}}
			cfg := twoQubitConfig(true, 200)
			cfg.ALAP = true
			return compile(t, c, cfg)
		}},
		{"mapped_surface7", func(t *testing.T) *isa.Program {
			c := &ir.Program{NumQubits: 4, Gates: []ir.Gate{
				lin("H", 0), {Name: "CZ", Qubits: []int{0, 3}},
				{Name: "CZ", Qubits: []int{1, 2}}, lin("X", 3),
				{Name: "MEASZ", Qubits: []int{0}, Measure: true},
				{Name: "MEASZ", Qubits: []int{3}, Measure: true},
			}}
			cfg := pipelineConfig(topology.Surface7(), isa.Default, true)
			cfg.Map = true
			cfg.InitWaitCycles = 10000
			return compile(t, c, cfg)
		}},
		{"qec_surface17", func(t *testing.T) *isa.Program {
			cfg := pipelineConfig(topology.Surface17(), isa.Surface17Instantiation(), true)
			cfg.InitWaitCycles = 10000
			return compile(t, benchmarks.QEC(2), cfg)
		}},
		{"qec_surface17_alap", func(t *testing.T) *isa.Program {
			cfg := pipelineConfig(topology.Surface17(), isa.Surface17Instantiation(), false)
			cfg.ALAP = true
			return compile(t, benchmarks.QEC(1), cfg)
		}},
	}
}

func TestGoldenEmit(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.prog(t).String()
			path := filepath.Join("testdata", "golden", tc.name+".eqasm")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (generate with -update before refactoring): %v", err)
			}
			if got != string(want) {
				t.Errorf("emitted program diverges from the pre-refactor compiler\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenCounts pins the Fig. 7 counting model: instruction counts for
// deterministic circuits across every configuration and width must match
// the pre-refactor Count exactly (the DSE-grid guard for circuits small
// enough to live in this package; the full RB/IM/SR grid is pinned by
// internal/dse's golden test).
func TestGoldenCounts(t *testing.T) {
	circuits := []*ir.Program{
		randomCircuit(3, 50, false),
		randomCircuit(7, 80, true),
		randomCircuit(11, 120, true),
	}
	var got string
	for ci, c := range circuits {
		pl := (&compiler.Pipeline{}).Append(compiler.PassValidate(), compiler.PassScheduleASAP())
		if err := pl.Run(c); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []compiler.Options{
			compiler.Config1, compiler.Config2, compiler.Config3, compiler.Config4,
			compiler.Config5, compiler.Config6, compiler.Config7, compiler.Config8,
			compiler.Config9, compiler.Config10,
		} {
			for w := 1; w <= 4; w++ {
				if cfg.Spec == compiler.TS2 && w < 2 {
					continue
				}
				r, err := compiler.Count(c, cfg.WithWidth(w))
				if err != nil {
					t.Fatal(err)
				}
				got += fmt.Sprintf("circuit%d %v: instr=%d bundles=%d qwaits=%d ops=%d raw=%d points=%d\n",
					ci, cfg.WithWidth(w), r.Instructions, r.BundleWords, r.QWaits,
					r.EffectiveOps, r.RawGates, r.Points)
			}
		}
	}
	path := filepath.Join("testdata", "golden", "counts.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update before refactoring): %v", err)
	}
	if got != string(want) {
		t.Errorf("count grid diverges from the pre-refactor compiler\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
