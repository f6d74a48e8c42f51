package hwconf

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"eqasm/internal/asm"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
)

func TestParseTwoQubitChip(t *testing.T) {
	topo, cfg, err := Parse([]byte(TwoQubitChipJSON))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumQubits != 3 || len(topo.Edges) != 2 {
		t.Fatalf("topology: %+v", topo)
	}
	if _, ok := topo.EdgeID(2, 0); !ok {
		t.Fatal("edge (2,0) missing")
	}
	x90, ok := cfg.ByName("X90")
	if !ok {
		t.Fatal("X90 missing")
	}
	if !x90.Unitary1.ApproxEqual(quantum.GateX90, 1e-9) {
		t.Fatal("X90 rotation wrong")
	}
	cx, ok := cfg.ByName("C_X")
	if !ok || cx.CondSel != isa.FlagLastOne {
		t.Fatalf("C_X: %+v", cx)
	}
	m, ok := cfg.ByName("MEASZ")
	if !ok || m.Kind != isa.OpKindMeasure || m.DurationCycles != 15 {
		t.Fatalf("MEASZ: %+v", m)
	}
	cz, ok := cfg.ByName("CZ")
	if !ok || cz.Kind != isa.OpKindTwo || cz.Unitary2 != quantum.CZ {
		t.Fatalf("CZ: %+v", cz)
	}
}

// A configuration file drives the full stack: assemble under it, build a
// machine from it and run the active-reset program.
func TestConfigFileDrivesFullStack(t *testing.T) {
	topo, cfg, err := Parse([]byte(TwoQubitChipJSON))
	if err != nil {
		t.Fatal(err)
	}
	m, err := microarch.New(microarch.Config{Topo: topo, OpConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(cfg, topo).Assemble(`
SMIS S2, {2}
QWAIT 100
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
QWAIT 20
STOP
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	recs := m.Measurements()
	if len(recs) != 2 || recs[1].Result != 0 {
		t.Fatalf("active reset through config file failed: %+v", recs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := &File{
		Name:    "test-chip",
		CycleNs: 20,
		Topology: TopologySpec{
			NumQubits: 2,
			Edges:     [][2]int{{0, 1}, {1, 0}},
			Feedlines: [][]int{{0, 1}},
		},
		Operations: []OpSpec{
			{Name: "RX45", Rotation: &RotationSpec{Axis: "x", AngleDeg: 45}},
			{Name: "MEASZ", Kind: "measure"},
		},
	}
	path := filepath.Join(t.TempDir(), "chip.json")
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	topo, cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "test-chip" || topo.NumQubits != 2 {
		t.Fatalf("topology: %+v", topo)
	}
	rx, ok := cfg.ByName("RX45")
	if !ok {
		t.Fatal("RX45 missing")
	}
	want := quantum.RotationDeg(quantum.AxisX, 45)
	if !rx.Unitary1.ApproxEqual(want, 1e-9) {
		t.Fatal("rotation mismatch after round trip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := Load("/nonexistent/chip.json"); err == nil {
		t.Fatal("expected error")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"bad json", `{`},
		{"bad kind", `{"name":"x","topology":{"num_qubits":1,"feedlines":[[0]]},
			"operations":[{"name":"G","kind":"triple","builtin":"X"}]}`},
		{"bad cond", `{"name":"x","topology":{"num_qubits":1,"feedlines":[[0]]},
			"operations":[{"name":"G","cond":"sometimes","builtin":"X"}]}`},
		{"bad axis", `{"name":"x","topology":{"num_qubits":1,"feedlines":[[0]]},
			"operations":[{"name":"G","rotation":{"axis":"w","angle_deg":10}}]}`},
		{"no unitary", `{"name":"x","topology":{"num_qubits":1,"feedlines":[[0]]},
			"operations":[{"name":"G"}]}`},
		{"rotation on two-qubit", `{"name":"x","topology":{"num_qubits":2,"edges":[[0,1]],"feedlines":[[0,1]]},
			"operations":[{"name":"G","kind":"two","rotation":{"axis":"x","angle_deg":10}}]}`},
		{"unitary on measure", `{"name":"x","topology":{"num_qubits":1,"feedlines":[[0]]},
			"operations":[{"name":"G","kind":"measure","builtin":"X"}]}`},
		{"bad builtin", `{"name":"x","topology":{"num_qubits":1,"feedlines":[[0]]},
			"operations":[{"name":"G","builtin":"FROB"}]}`},
		{"bad edge", `{"name":"x","topology":{"num_qubits":2,"edges":[[0,7]],"feedlines":[[0,1]]},
			"operations":[]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Parse([]byte(c.json)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestRotationAngleSemantics(t *testing.T) {
	_, cfg, err := Parse([]byte(`{
		"name": "x",
		"topology": {"num_qubits": 1, "feedlines": [[0]]},
		"operations": [
			{"name": "RX180", "rotation": {"axis": "x", "angle_deg": 180}},
			{"name": "RZ90", "rotation": {"axis": "z", "angle_deg": 90}, "channel": "flux"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rx, _ := cfg.ByName("RX180")
	if !rx.Unitary1.ApproxEqualUpToPhase(quantum.PauliX, 1e-9) {
		t.Fatal("RX180 != X up to phase")
	}
	rz, _ := cfg.ByName("RZ90")
	if rz.Channel != isa.ChanFlux {
		t.Fatal("flux channel not honoured")
	}
	if !rz.Unitary1.ApproxEqualUpToPhase(quantum.SGate, 1e-9) {
		t.Fatal("RZ90 != S up to phase")
	}
}

func TestOpcodeCollisionDetected(t *testing.T) {
	_, _, err := Parse([]byte(`{
		"name": "x",
		"topology": {"num_qubits": 1, "feedlines": [[0]]},
		"operations": [
			{"name": "A", "opcode": 5, "builtin": "X"},
			{"name": "B", "opcode": 5, "builtin": "Y"}
		]
	}`))
	if err == nil {
		t.Fatal("duplicate opcode accepted")
	}
}

func TestDurationsByKind(t *testing.T) {
	_, cfg, err := Parse([]byte(`{
		"name": "x",
		"topology": {"num_qubits": 2, "edges": [[0,1]], "feedlines": [[0,1]]},
		"operations": [
			{"name": "G1", "builtin": "X"},
			{"name": "G2", "kind": "two", "builtin": "CZ"},
			{"name": "M", "kind": "measure"},
			{"name": "SLOW", "builtin": "X", "duration_cycles": 9}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, want int) {
		d, _ := cfg.ByName(name)
		if d.DurationCycles != want {
			t.Errorf("%s duration = %d, want %d", name, d.DurationCycles, want)
		}
	}
	check("G1", 1)
	check("G2", 2)
	check("M", 15)
	check("SLOW", 9)
	if math.Abs(cfg.CycleNs-20) > 1e-12 {
		t.Errorf("default cycle = %v", cfg.CycleNs)
	}
}

func TestNoiseSection(t *testing.T) {
	f, _, _, err := LoadFullBytes(t, `{
		"name": "noisy-chip",
		"topology": {"num_qubits": 1, "feedlines": [[0]]},
		"operations": [{"name": "X", "builtin": "X"}],
		"noise": {"t1_ns": 30000, "t2_ns": 22000, "readout_error": 0.09}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.NoiseModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.T1Ns != 30000 || m.T2Ns != 22000 || m.ReadoutError != 0.09 {
		t.Fatalf("noise: %+v", m)
	}
	// Absent section = ideal chip.
	f2, _, _, err := LoadFullBytes(t, `{
		"name": "clean",
		"topology": {"num_qubits": 1, "feedlines": [[0]]},
		"operations": []
	}`)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := f2.NoiseModel()
	if err != nil {
		t.Fatal(err)
	}
	if m2 != (quantum.NoiseModel{}) {
		t.Fatalf("absent noise should be ideal: %+v", m2)
	}
	// Unphysical noise is rejected.
	f3, _, _, err := LoadFullBytes(t, `{
		"name": "bad",
		"topology": {"num_qubits": 1, "feedlines": [[0]]},
		"operations": [],
		"noise": {"t1_ns": 1000, "t2_ns": 5000}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f3.NoiseModel(); err == nil {
		t.Fatal("T2 > 2*T1 accepted")
	}
}

// LoadFullBytes mirrors LoadFull for in-memory JSON (test helper).
func LoadFullBytes(t *testing.T, data string) (*File, interface{}, interface{}, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.json")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	f, topo, cfg, err := LoadFull(path)
	return f, topo, cfg, err
}
