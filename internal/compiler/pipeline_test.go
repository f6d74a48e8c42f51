package compiler

import (
	"strings"
	"testing"

	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

func pipelineCircuit() *ir.Program {
	return &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		lin("H", 0), lin("H", 2),
		{Name: "CZ", Qubits: []int{2, 0}},
		{Name: "MEASZ", Qubits: []int{0}, Measure: true},
		{Name: "MEASZ", Qubits: []int{2}, Measure: true},
	}}
}

func TestNewPipelinePassNames(t *testing.T) {
	pl, err := NewPipeline(PipelineConfig{
		Config: isa.DefaultConfig(), Topo: topology.TwoQubit(), Inst: isa.Default,
		ALAP: true, Arch: DefaultArch(isa.Default), AppendStop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"validate", "schedule-alap", "pack", "regalloc", "timing", "emit"}
	got := pl.Passes()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("passes = %v, want %v", got, want)
	}
	// With mapping enabled the map pass slots in after validation.
	pl, err = NewPipeline(PipelineConfig{
		Config: isa.DefaultConfig(), Topo: topology.Surface7(), Inst: isa.Default,
		Map: true, Arch: DefaultArch(isa.Default),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Passes(); got[1] != "map" || got[2] != "schedule-asap" {
		t.Fatalf("passes = %v", got)
	}
}

func TestPipelineObserversSeeEveryStage(t *testing.T) {
	pl, err := NewPipeline(PipelineConfig{
		Config: isa.DefaultConfig(), Topo: topology.TwoQubit(), Inst: isa.Default,
		Arch: DefaultArch(isa.Default), AppendStop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	var packedPoints int
	pl.Observe(func(pass string, p *ir.Program) error {
		seen = append(seen, pass)
		if pass == "pack" {
			packedPoints = len(p.Points)
		}
		return nil
	})
	p := pipelineCircuit()
	if err := pl.Run(p); err != nil {
		t.Fatal(err)
	}
	if strings.Join(seen, ",") != strings.Join(pl.Passes(), ",") {
		t.Fatalf("observer saw %v, pipeline has %v", seen, pl.Passes())
	}
	// H,H at cycle 0; CZ at 1; MEASZ,MEASZ at 3.
	if packedPoints != 3 {
		t.Fatalf("packed %d points, want 3", packedPoints)
	}
	if p.Code == nil || p.Code.Instrs[len(p.Code.Instrs)-1].Op != isa.OpSTOP {
		t.Fatalf("emit pass did not produce terminated code: %v", p.Code)
	}
}

// ts1 timing lowering spends a standalone QWAIT on every interval and
// keeps every bundle PI at zero — and agrees with the ts1 counting
// model on bundle and QWAIT counts (the counting assumption excludes
// SMIS/SMIT and STOP).
func TestEmitArchTS1(t *testing.T) {
	arch := Options{Spec: TS1, SOMQ: true, VLIWWidth: 2}
	cfg := twoQubit(false)
	cfg.Arch = arch
	cfg.AppendStop = true
	s := pipelineCircuit()
	prog := compile(t, s, cfg)
	var bundles, qwaits int64
	for _, ins := range prog.Instrs {
		switch ins.Op {
		case isa.OpBundle:
			bundles++
			if ins.PI != 0 {
				t.Fatalf("ts1 bundle carries PI %d:\n%s", ins.PI, prog)
			}
		case isa.OpQWAIT:
			qwaits++
		}
	}
	counted := mustCount(t, s, arch)
	if bundles != counted.BundleWords || qwaits != counted.QWaits {
		t.Fatalf("emitter %d bundles / %d qwaits, counter %d / %d\n%s",
			bundles, qwaits, counted.BundleWords, counted.QWaits, prog)
	}
	if qwaits != 2 {
		t.Fatalf("ts1 should spend a QWAIT on both non-opening points:\n%s", prog)
	}
}

func TestEmitArchRejectsUnencodableKnobs(t *testing.T) {
	cases := []struct {
		arch Options
		want string
	}{
		{Options{Spec: TS2, VLIWWidth: 2}, "counting-only"},
		{Options{Spec: TS3, WPI: 5, VLIWWidth: 1}, "PI field"},
		{Options{Spec: TS3, WPI: 3, VLIWWidth: 4}, "instantiation's width"},
	}
	for _, tc := range cases {
		cfg := twoQubit(false)
		cfg.Arch = tc.arch
		_, err := NewPipeline(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want mention of %q", tc.arch, err, tc.want)
		}
	}
}

// The Counter observer over a counting pipeline (validate, schedule,
// pack without a chip) reproduces Count exactly.
func TestCountingPipelineMatchesCount(t *testing.T) {
	for _, opt := range []Options{Config1, Config5.WithWidth(2), Config9.WithWidth(2)} {
		ctr := &Counter{Opt: opt}
		pl := (&Pipeline{}).Append(PassValidate(), PassScheduleASAP(), PassPack(nil, nil, opt.SOMQ)).
			Observe(ctr.Observer())
		if err := pl.Run(randomCountCircuit(5)); err != nil {
			t.Fatal(err)
		}
		if want := mustCount(t, asap(t, randomCountCircuit(5)), opt); ctr.Result != want {
			t.Errorf("%v: observer %+v, Count %+v", opt, ctr.Result, want)
		}
	}
}

func randomCountCircuit(seed int64) *ir.Program {
	rng := newRand(seed)
	c := &ir.Program{NumQubits: 4}
	names := []string{"X", "Y", "H"}
	for i := 0; i < 60; i++ {
		if rng.Intn(5) == 0 {
			a := rng.Intn(4)
			b := (a + 1 + rng.Intn(3)) % 4
			c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{a, b}})
		} else {
			c.Gates = append(c.Gates, ir.Gate{Name: names[rng.Intn(3)], Qubits: []int{rng.Intn(4)}})
		}
	}
	return c
}

// A gate parsed from source keeps its position through mapping and
// packing, so compile faults point at the circuit text.
func TestPassDiagnosticsCarrySourcePosition(t *testing.T) {
	p := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		{Name: "WOBBLE", Qubits: []int{0}, Pos: ir.Pos{Line: 7, Col: 3}},
	}}
	pl := (&Pipeline{}).Append(PassValidate(), PassScheduleASAP(),
		PassPack(isa.DefaultConfig(), topology.TwoQubit(), false))
	err := pl.Run(p)
	if err == nil || !strings.Contains(err.Error(), "7:3") {
		t.Fatalf("err = %v, want the source position 7:3", err)
	}
}
