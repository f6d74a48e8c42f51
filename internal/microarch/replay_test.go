package microarch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eqasm/internal/asm"
	"eqasm/internal/compiler"
	"eqasm/internal/isa"
	"eqasm/internal/openqasm"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// replayNoise exercises every noise channel, so a replay that drops,
// adds or reorders a chip call desynchronizes the random stream and
// shows up as a diverging trajectory.
var replayNoise = quantum.NoiseModel{
	T1Ns: 30_000, T2Ns: 20_000,
	Gate1QError: 0.002, Gate2QError: 0.02, ReadoutError: 0.03,
}

type replayFixture struct {
	name string
	topo *topology.Topology
	inst isa.Instantiation
	prog *isa.Program
}

// replayFixtures loads every shipped eQASM program on its declared chip
// plus the OpenQASM QEC cycle compiled for surface7.
func replayFixtures(t *testing.T, cfg *isa.OpConfig) []replayFixture {
	t.Helper()
	root := filepath.Join("..", "..", "testdata")
	files, err := filepath.Glob(filepath.Join(root, "programs", "*.eqasm"))
	if err != nil {
		t.Fatal(err)
	}
	var out []replayFixture
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fx := replayFixture{name: filepath.Base(f), topo: topology.TwoQubit(), inst: isa.Default}
		if strings.Contains(string(src), "# topo: chain16") {
			fx.topo = topology.Chain(16)
			fx.inst = isa.ChainInstantiation(16)
			fx.inst.PairTopology = fx.topo
		}
		a := asm.New(cfg, fx.topo)
		a.Inst = fx.inst
		if fx.prog, err = a.Assemble(string(src)); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		out = append(out, fx)
	}
	src, err := os.ReadFile(filepath.Join(root, "circuits", "qec.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	circ, err := openqasm.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Surface7()
	pl, err := compiler.NewPipeline(compiler.PipelineConfig{
		Config: cfg, Topo: topo, Inst: isa.Default,
		Arch: compiler.DefaultArch(isa.Default), AppendStop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(circ); err != nil {
		t.Fatal(err)
	}
	return append(out, replayFixture{name: "qec.qasm", topo: topo, inst: isa.Default, prog: circ.Code})
}

// machinePair builds two machines from one configuration: rep replays
// shot-invariant plans, full always runs the whole machine.
func machinePair(t testing.TB, cfg Config) (rep, full *Machine) {
	t.Helper()
	rep, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full.noReplay = true
	return rep, full
}

// diffState describes the first observable difference between two
// machines after a run ("" when none): the measurement record, stats,
// device trace, architectural state and the chip's outcome
// probabilities.
func diffState(a, b *Machine) string {
	switch {
	case !reflect.DeepEqual(a.measRec, b.measRec):
		return fmt.Sprintf("measurements %v vs %v", a.measRec, b.measRec)
	case a.stats != b.stats:
		return fmt.Sprintf("stats %+v vs %+v", a.stats, b.stats)
	case !reflect.DeepEqual(a.trace, b.trace):
		return fmt.Sprintf("device trace %v vs %v", a.trace, b.trace)
	case !reflect.DeepEqual(a.gpr, b.gpr):
		return fmt.Sprintf("GPRs %v vs %v", a.gpr, b.gpr)
	case a.cmpFlags != b.cmpFlags:
		return fmt.Sprintf("comparison flags %v vs %v", a.cmpFlags, b.cmpFlags)
	case !bytes.Equal(a.mem, b.mem) || a.memDirtyHi != b.memDirtyHi:
		return "data memory"
	case !reflect.DeepEqual(a.sRegs, b.sRegs) || !reflect.DeepEqual(a.sRegsHi, b.sRegsHi) ||
		!reflect.DeepEqual(a.sSets, b.sSets):
		return fmt.Sprintf("S registers %v vs %v", a.sRegs, b.sRegs)
	case !reflect.DeepEqual(a.tRegs, b.tRegs) || !reflect.DeepEqual(a.tRegsHi, b.tRegsHi) ||
		!reflect.DeepEqual(a.tSets, b.tSets):
		return fmt.Sprintf("T registers %v vs %v", a.tRegs, b.tRegs)
	case !reflect.DeepEqual(a.qResults, b.qResults) || !reflect.DeepEqual(a.measCounters, b.measCounters):
		return fmt.Sprintf("Qi/Ci %v/%v vs %v/%v", a.qResults, a.measCounters, b.qResults, b.measCounters)
	case a.tick != b.tick || a.pc != b.pc || a.halted != b.halted:
		return fmt.Sprintf("tick/pc %d/%d vs %d/%d", a.tick, a.pc, b.tick, b.pc)
	}
	for q := 0; q < a.backend.NumQubits(); q++ {
		if pa, pb := a.backend.Prob1(q), b.backend.Prob1(q); pa != pb {
			return fmt.Sprintf("qubit %d: P(1) %v vs %v", q, pa, pb)
		}
	}
	return ""
}

// compareShots runs shots from Reset on both machines and fails on the
// first shot whose error or post-shot state differs. It reports
// whether every shot completed.
func compareShots(t *testing.T, rep, full *Machine, shots int) bool {
	t.Helper()
	for shot := 0; shot < shots; shot++ {
		rep.Reset()
		full.Reset()
		errR, errF := rep.Run(), full.Run()
		if fmt.Sprint(errR) != fmt.Sprint(errF) {
			t.Fatalf("shot %d: replay error %v, full machine %v", shot, errR, errF)
		}
		if d := diffState(rep, full); d != "" {
			t.Fatalf("shot %d: %s", shot, d)
		}
		if errR != nil {
			if shot != 0 {
				t.Fatalf("shot %d: fault after a clean first shot: %v", shot, errR)
			}
			return false
		}
	}
	return true
}

// TestReplayParity runs every fixture under the state-vector,
// density-matrix and stabilizer backends, ideal and noisy, at three
// seeds, and requires the replayed shots to match the full machine's
// shot for shot: measurements, stats, device trace, architectural state
// and chip state. Faulting combinations (a non-Clifford program on the
// tableau) must fail identically.
func TestReplayParity(t *testing.T) {
	opCfg := isa.DefaultConfig()
	for _, fx := range replayFixtures(t, opCfg) {
		for _, backend := range []string{"sv", "dm", "stabilizer"} {
			for _, noisy := range []bool{false, true} {
				if backend == "dm" && fx.topo.NumQubits > MaxDMQubits || backend == "stabilizer" && noisy {
					continue
				}
				for _, seed := range []int64{1, 7, 12345} {
					name := fmt.Sprintf("%s/%s/noisy=%v/seed=%d", fx.name, backend, noisy, seed)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Topo: fx.topo, OpConfig: opCfg, Inst: fx.inst, Seed: seed,
							RecordDeviceOps:  true,
							UseDensityMatrix: backend == "dm",
							UseStabilizer:    backend == "stabilizer",
						}
						if noisy {
							cfg.Noise = replayNoise
						}
						rep, full := machinePair(t, cfg)
						ex, err := plan.Build(fx.prog, fx.topo, opCfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := rep.LoadPlan(ex); err != nil {
							t.Fatal(err)
						}
						if err := full.LoadPlan(ex); err != nil {
							t.Fatal(err)
						}
						shots := 12
						if fx.topo.NumQubits > 8 {
							shots = 2 // one recorded, one replayed
						}
						if compareShots(t, rep, full, shots) && rep.rec.valid != ex.ShotInvariant() {
							t.Fatalf("recording valid = %v for a plan with ShotInvariant %v",
								rep.rec.valid, ex.ShotInvariant())
						}
					})
				}
			}
		}
	}
}

// TestReplayParityMockMeasure replays scripted measurement results: the
// mock is called with the same per-qubit measurement index on every
// replayed shot.
func TestReplayParityMockMeasure(t *testing.T) {
	cfg := Config{Topo: topology.TwoQubit(), OpConfig: isa.DefaultConfig(), RecordDeviceOps: true,
		MockMeasure: func(q, idx int) int { return q/2 ^ idx }}
	rep, full := machinePair(t, cfg)
	a := asm.New(cfg.OpConfig, cfg.Topo)
	p, err := a.Assemble(`
SMIS S0, {0}
SMIS S2, {0, 2}
QWAIT 10
MEASZ S2
QWAIT 50
MEASZ S0
QWAIT 50
STOP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{rep, full} {
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	compareShots(t, rep, full, 4)
	if !rep.rec.valid {
		t.Fatal("mock-measured shots were not replayed")
	}
	want := []int{0, 1, 1}
	for i, r := range rep.Measurements() {
		if r.Result != want[i] {
			t.Fatalf("replayed record %d = %+v, want result %d", i, r, want[i])
		}
	}
}

// TestReplayOutOfOrderResults measures qubit 0 with the long MEASZ and,
// a cycle later, qubit 2 with a short readout, so qubit 2's result
// arrives first: each replayed record must take the bit of the
// measurement call that produced it, not of the call at its position.
func TestReplayOutOfOrderResults(t *testing.T) {
	opCfg := isa.DefaultConfig()
	opCfg.MustDefine(isa.OpDef{Name: "MEASF", Kind: isa.OpKindMeasure, DurationCycles: 3})
	cfg := Config{Topo: topology.TwoQubit(), OpConfig: opCfg, RecordDeviceOps: true}
	rep, full := machinePair(t, cfg)
	p, err := asm.New(opCfg, cfg.Topo).Assemble(`
SMIS S0, {0}
SMIS S2, {2}
QWAIT 10
X S0
MEASZ S0
MEASF S2
QWAIT 50
STOP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{rep, full} {
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	compareShots(t, rep, full, 3)
	recs := rep.Measurements()
	if !rep.rec.valid || len(recs) != 2 || recs[0].Qubit != 2 || recs[0].Result != 0 || recs[1].Result != 1 {
		t.Fatalf("replayed records %+v, want qubit 2 reading 0 before qubit 0 reading 1", recs)
	}
}

// TestReplayStateSurvivesUpload runs a loop program's shots (replayed
// after the first), then uploads a second program that reads what the
// first left behind — the S0 target register, the loop counter in R3
// and the count it published to data memory — without a Reset, as a
// host uploading new quantum code does. The second run must see the
// same state on both machines.
func TestReplayStateSurvivesUpload(t *testing.T) {
	cfg := Config{Topo: topology.TwoQubit(), OpConfig: isa.DefaultConfig(), Seed: 5,
		Noise: replayNoise, RecordDeviceOps: true}
	rep, full := machinePair(t, cfg)
	a := asm.New(cfg.OpConfig, cfg.Topo)
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "programs", "loop.eqasm"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Assemble(`
LD R5, R1(0)       # the first program's published loop count
QWAIT 10
X S0               # S0 still selects qubit 0
MEASZ S0
QWAIT 50
STOP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{rep, full} {
		if err := m.LoadProgram(first); err != nil {
			t.Fatal(err)
		}
	}
	compareShots(t, rep, full, 6)
	if !rep.rec.valid {
		t.Fatal("loop shots were not replayed")
	}
	for _, m := range []*Machine{rep, full} {
		if err := m.LoadProgram(second); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if d := diffState(rep, full); d != "" {
		t.Fatalf("second program: %s", d)
	}
	if rep.GPR(5) != 2 || rep.SReg(0) != 1 || len(rep.Measurements()) != 1 {
		t.Fatalf("second program saw R5=%d S0=%#x and %d measurements, want 2, 0x1, 1",
			rep.GPR(5), rep.SReg(0), len(rep.Measurements()))
	}
}

// TestReplayLongShotRunsFullMachine loops a feedback-free program past
// maxRecordedCalls chip calls: the shot is not recorded, and every shot
// runs the full machine with the same results.
func TestReplayLongShotRunsFullMachine(t *testing.T) {
	cfg := Config{Topo: topology.TwoQubit(), OpConfig: isa.DefaultConfig(), Seed: 2, Noise: replayNoise}
	rep, full := machinePair(t, cfg)
	// Two X pulses and two idle gaps per iteration.
	iterations := maxRecordedCalls/4 + 1000
	p, err := asm.New(cfg.OpConfig, cfg.Topo).Assemble(`
SMIS S0, {0, 2}
LDI R1, 1
LDI R2, ` + fmt.Sprint(iterations) + `
QWAIT 10
loop:
X S0
QWAIT 4
ADD R3, R3, R1
CMP R3, R2
BR LT, loop
MEASZ S0
QWAIT 50
STOP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{rep, full} {
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	compareShots(t, rep, full, 2)
	if rep.rec.valid || !rep.rec.tooLong || len(rep.rec.calls) != 0 {
		t.Fatalf("recording valid=%v tooLong=%v with %d calls kept, want an abandoned, empty recording",
			rep.rec.valid, rep.rec.tooLong, len(rep.rec.calls))
	}
}

// TestReplayInvalidation checks the events that discard a recording:
// loading a plan, SetGPR and WriteWord. A run after a host write does
// not start from power-on, so it runs the full machine and records
// nothing.
func TestReplayInvalidation(t *testing.T) {
	cfg := Config{Topo: topology.TwoQubit(), OpConfig: isa.DefaultConfig(), Seed: 3}
	rep, full := machinePair(t, cfg)
	a := asm.New(cfg.OpConfig, cfg.Topo)
	p, err := a.Assemble(`
SMIS S0, {0}
QWAIT 10
X90 S0
MEASZ S0
QWAIT 50
ADD R2, R2, R1     # R1 is host-written
ST R2, R0(8)
STOP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{rep, full} {
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	compareShots(t, rep, full, 3)
	for _, write := range []func(m *Machine){
		func(m *Machine) { m.SetGPR(1, 9) },
		func(m *Machine) {
			if err := m.WriteWord(8, 4); err != nil {
				t.Fatal(err)
			}
		},
		func(m *Machine) {
			if err := m.LoadProgram(p); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if !rep.rec.valid {
			t.Fatal("no recording before the host write")
		}
		for _, m := range []*Machine{rep, full} {
			m.Reset()
			write(m)
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if rep.rec.valid {
			t.Fatal("a host write kept the recording")
		}
		if d := diffState(rep, full); d != "" {
			t.Fatalf("run after host write: %s", d)
		}
		compareShots(t, rep, full, 3)
	}
}

// FuzzReplayParity draws random feedback-free programs — SMIS/SMIT with
// arbitrary masks, bundles with random PI, QWAIT/QWAITR, LDI/ADD/ST/LD,
// bounded BR loops and measurements — on the two-qubit chip and
// requires replayed shots to match the full machine's. Draws that fault
// (collisions, timing violations, invalid masks, non-Clifford gates on
// the tableau) must return the same error on shot 0.
func FuzzReplayParity(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 3, 3, 0x20, 7, 4, 4, 9, 0x41, 2, 5, 5, 11, 3})
	f.Add([]byte{2, 6, 1, 0, 1, 8, 3, 2, 1, 10, 0, 4, 3, 3, 2, 1, 9, 9})
	opCfg := isa.DefaultConfig()
	topo := topology.TwoQubit()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 256 {
			return
		}
		prog := fuzzProgram(data[2:])
		cfg := Config{Topo: topo, OpConfig: opCfg, Seed: int64(data[1]), RecordDeviceOps: true,
			MaxTicks: 1_000_000}
		switch data[0] % 4 {
		case 1:
			cfg.Noise = replayNoise
		case 2:
			cfg.UseDensityMatrix = true
			cfg.Noise = replayNoise
		case 3:
			cfg.UseStabilizer = true
		}
		rep, full := machinePair(t, cfg)
		ex, err := plan.Build(prog, topo, opCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.ShotInvariant() {
			t.Fatalf("generated program is not shot-invariant:\n%s", prog)
		}
		for _, m := range []*Machine{rep, full} {
			if err := m.LoadPlan(ex); err != nil {
				t.Fatal(err)
			}
		}
		compareShots(t, rep, full, 4)
	})
}

// fuzzProgram decodes bytes into a feedback-free program ending in STOP.
// S0, S1 and T0 start with valid targets; R5 holds 1, R6/R7 are reserved for loop bounds and counters, and loops
// do not nest, so every program terminates.
func fuzzProgram(data []byte) *isa.Program {
	gates := []string{"H", "X", "Y", "X90", "T", "MEASZ", "CZ"}
	instrs := []isa.Instr{
		{Op: isa.OpLDI, Rd: 5, Imm: 1},
		{Op: isa.OpSMIS, Addr: 0, Mask: isa.QubitMask(0, 2)},
		{Op: isa.OpSMIS, Addr: 1, Mask: isa.QubitMask(2)},
		{Op: isa.OpSMIT, Addr: 0, Mask: 1},
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	loopStart := -1
	for len(data) > 0 {
		b := next()
		reg := b >> 4 & 3 // R0..R3 (and S/T registers 0..3)
		switch b % 12 {
		case 0:
			// Mostly the measurable qubits 0 and 2; a set high bit
			// draws any 7-bit mask, including qubits beyond the chip.
			mask := uint64(next())
			if mask&0x80 == 0 {
				mask &= 0b101
			}
			instrs = append(instrs, isa.Instr{Op: isa.OpSMIS, Addr: reg, Mask: mask & 0x7F})
		case 1:
			instrs = append(instrs, isa.Instr{Op: isa.OpSMIT, Addr: reg, Mask: uint64(next()) & 0xF})
		case 2, 3, 4:
			g := gates[int(next())%len(gates)]
			ops := []isa.QOp{{Name: g, Target: reg}}
			if c := next(); c&1 == 1 {
				ops = append(ops, isa.QOp{Name: gates[int(c>>1)%len(gates)], Target: c >> 4 & 3})
			}
			instrs = append(instrs, isa.NewBundle(b>>6, ops...))
			if ops[0].Name == "MEASZ" && b&0x40 == 0 {
				// Usually let the readout pulse finish before the next
				// operation could collide with it.
				instrs = append(instrs, isa.Instr{Op: isa.OpQWAIT, Imm: 20})
			}
		case 5:
			instrs = append(instrs, isa.Instr{Op: isa.OpQWAIT, Imm: int32(next() % 64)})
		case 6:
			instrs = append(instrs, isa.Instr{Op: isa.OpQWAITR, Rs: reg})
		case 7:
			instrs = append(instrs, isa.Instr{Op: isa.OpLDI, Rd: reg, Imm: int32(next()%40) - 8})
		case 8:
			instrs = append(instrs, isa.Instr{Op: isa.OpADD, Rd: reg, Rs: reg, Rt: next() & 7})
		case 9:
			instrs = append(instrs, isa.Instr{Op: isa.OpST, Rs: reg, Rt: next() & 3, Imm: int32(next()) * 4})
		case 10:
			instrs = append(instrs, isa.Instr{Op: isa.OpLD, Rd: reg, Rt: next() & 3, Imm: int32(next()) * 4})
		case 11:
			if loopStart < 0 {
				instrs = append(instrs,
					isa.Instr{Op: isa.OpLDI, Rd: 6, Imm: int32(next()%3) + 1},
					isa.Instr{Op: isa.OpLDI, Rd: 7, Imm: 0})
				loopStart = len(instrs)
				continue
			}
			instrs = append(instrs,
				isa.Instr{Op: isa.OpADD, Rd: 7, Rs: 7, Rt: 5},
				isa.Instr{Op: isa.OpCMP, Rs: 7, Rt: 6},
				isa.Instr{Op: isa.OpBR, Cond: isa.CondLT, Imm: int32(loopStart - len(instrs) - 2)})
			loopStart = -1
		}
	}
	instrs = append(instrs, isa.NewBundle(1), isa.Instr{Op: isa.OpQWAIT, Imm: 50}, isa.Instr{Op: isa.OpSTOP})
	return &isa.Program{Instrs: instrs}
}
