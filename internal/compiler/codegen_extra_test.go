package compiler

import (
	"reflect"
	"strings"
	"testing"

	"eqasm/internal/ir"
)

func TestCircuitStats(t *testing.T) {
	c := &ir.Program{NumQubits: 3, Gates: []ir.Gate{
		lin("X", 0), lin("X", 1),
		{Name: "CZ", Qubits: []int{0, 1}},
		{Name: "MEASZ", Qubits: []int{0}, Measure: true},
	}}
	st := GateStats(c)
	if st.Total != 4 || st.SingleQ != 2 || st.TwoQ != 1 || st.Measures != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.TwoQFrac != 0.25 {
		t.Fatalf("two-qubit fraction = %v", st.TwoQFrac)
	}
	if st.GateNames["X"] != 2 {
		t.Fatalf("name histogram: %v", st.GateNames)
	}
	if empty := GateStats(&ir.Program{}); empty.Total != 0 || empty.TwoQFrac != 0 {
		t.Fatalf("empty stats: %+v", empty)
	}
}

func TestOptionStrings(t *testing.T) {
	for _, c := range []struct {
		opt  Options
		want string
	}{
		{Config1, "(ts1, no PI, no SOMQ) w=1"},
		{Config2, "(ts2, no PI, no SOMQ) w=2"},
		{Config9.WithWidth(2), "(ts3, wPI=3, SOMQ) w=2"},
	} {
		if got := c.opt.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	for _, ts := range []TimingSpec{TS1, TS2, TS3} {
		if strings.HasPrefix(ts.String(), "TimingSpec(") {
			t.Errorf("spec %d unnamed", ts)
		}
	}
}

func TestIntervalHistogram(t *testing.T) {
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{
		lin("X", 0), lin("Y", 1), // point 0: 2 gates
		{Name: "CZ", Qubits: []int{0, 1}}, // point 1
		lin("X", 0),                       // point 3 (CZ lasts 2)
	}}
	s := asap(t, c)
	if err := PassPack(nil, nil, false).Run(s); err != nil {
		t.Fatal(err)
	}
	ih := IntervalHistogram(s)
	if len(ih) != 2 || ih[1] != 1 || ih[2] != 1 {
		t.Fatalf("intervals: %v", ih)
	}
	if r := mustCount(t, s, Config1); r.Points != 3 || r.GatesPerPoint() != 4.0/3 {
		t.Fatalf("points = %d, gates/point = %v", r.Points, r.GatesPerPoint())
	}
}

// Count packs a copy: counting one scheduled (here also packed)
// program under one configuration must not leak into the next, since
// the design-space exploration counts one program across the whole
// grid.
func TestCountLeavesProgramUnchanged(t *testing.T) {
	build := func() *ir.Program {
		p := asap(t, randomCountCircuit(9))
		if err := PassPack(nil, nil, false).Run(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, want := build(), build()
	mustCount(t, p, Config1.WithWidth(1))
	got := mustCount(t, p, Config9.WithWidth(2))
	if fresh := mustCount(t, build(), Config9.WithWidth(2)); got != fresh {
		t.Fatalf("second count %+v, fresh count %+v", got, fresh)
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatal("Count changed the program's gates, schedule or points")
	}
}

func TestSymmetricGate(t *testing.T) {
	if !symmetricGate("CZ") || symmetricGate("CNOT") {
		t.Fatal("CZ is symmetric, CNOT is not")
	}
}
