package plan_test

import (
	"os"
	"path/filepath"
	"testing"

	"eqasm/internal/asm"
	"eqasm/internal/compiler"
	"eqasm/internal/isa"
	"eqasm/internal/openqasm"
	"eqasm/internal/plan"
	"eqasm/internal/topology"
)

// TestShotInvariant classifies the shipped fixtures: active_reset's C_X
// is fast-conditional and cfc reads a result through FMR, so both are
// shot-dependent; a classical loop is not, since loop's branch reads a
// counter, never a measurement.
func TestShotInvariant(t *testing.T) {
	root := filepath.Join("..", "..", "testdata")
	cfg := isa.DefaultConfig()
	for _, tc := range []struct {
		file      string
		topo      *topology.Topology
		invariant bool
	}{
		{"programs/bell.eqasm", topology.TwoQubit(), true},
		{"circuits/qec.qasm", topology.Surface7(), true},
		{"programs/t_ladder.eqasm", topology.TwoQubit(), true},
		{"programs/rz_ladder.eqasm", topology.TwoQubit(), true},
		{"programs/rz_chain16.eqasm", topology.Chain(16), true},
		{"programs/loop.eqasm", topology.TwoQubit(), true},
		{"programs/active_reset.eqasm", topology.TwoQubit(), false},
		{"programs/cfc.eqasm", topology.TwoQubit(), false},
	} {
		src, err := os.ReadFile(filepath.Join(root, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var prog *isa.Program
		if filepath.Ext(tc.file) == ".qasm" {
			circ, err := openqasm.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			pl, err := compiler.NewPipeline(compiler.PipelineConfig{
				Config: cfg, Topo: tc.topo, Inst: isa.Default,
				Arch: compiler.DefaultArch(isa.Default), AppendStop: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Run(circ); err != nil {
				t.Fatalf("%s: %v", tc.file, err)
			}
			prog = circ.Code
		} else {
			a := asm.New(cfg, tc.topo)
			if tc.topo.NumQubits > 7 {
				a.Inst = isa.ChainInstantiation(tc.topo.NumQubits)
				a.Inst.PairTopology = tc.topo
			}
			if prog, err = a.Assemble(string(src)); err != nil {
				t.Fatalf("%s: %v", tc.file, err)
			}
		}
		ex, err := plan.Build(prog, tc.topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ex.ShotInvariant(); got != tc.invariant {
			t.Errorf("%s: ShotInvariant() = %v, want %v", tc.file, got, tc.invariant)
		}
	}
}
