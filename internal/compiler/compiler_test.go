package compiler

import (
	"testing"
	"testing/quick"

	"eqasm/internal/ir"
)

func lin(name string, qs ...int) ir.Gate { return ir.Gate{Name: name, Qubits: qs} }

// schedule runs the validate and ASAP (or ALAP) passes over p in place.
func schedule(p *ir.Program, alap bool) error {
	pass := PassScheduleASAP()
	if alap {
		pass = PassScheduleALAP()
	}
	return (&Pipeline{}).Append(PassValidate(), pass).Run(p)
}

// asap schedules p as soon as possible, failing the test on error.
func asap(t *testing.T, p *ir.Program) *ir.Program {
	t.Helper()
	if err := schedule(p, false); err != nil {
		t.Fatal(err)
	}
	return p
}

// mustCount sizes p under opt, failing the test on error.
func mustCount(t *testing.T, p *ir.Program, opt Options) CountResult {
	t.Helper()
	r, err := Count(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestASAPSequentialChain(t *testing.T) {
	c := &ir.Program{NumQubits: 1, Gates: []ir.Gate{lin("X", 0), lin("Y", 0), lin("Z", 0)}}
	s := asap(t, c)
	for i, start := range s.Starts {
		if start != int64(i) {
			t.Errorf("gate %d starts at %d, want %d", i, start, i)
		}
	}
	if s.Length != 3 {
		t.Errorf("makespan = %d", s.Length)
	}
}

func TestASAPParallelQubits(t *testing.T) {
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{lin("X", 0), lin("Y", 1)}}
	s := asap(t, c)
	if s.Starts[0] != 0 || s.Starts[1] != 0 {
		t.Fatal("independent gates must start together")
	}
	if got := mustCount(t, s, Config1).GatesPerPoint(); got != 2 {
		t.Errorf("parallelism = %v", got)
	}
}

func TestASAPTwoQubitDependency(t *testing.T) {
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{
		lin("X", 0),     // cycle 0
		lin("CZ", 0, 1), // waits for q0: cycle 1, takes 2
		lin("Y", 1),     // waits for CZ: cycle 3
		lin("H", 0),     // also waits for CZ: cycle 3
	}}
	s := asap(t, c)
	byName := map[string]int64{}
	for i, g := range s.Gates {
		byName[g.Name] = s.Starts[i]
	}
	if byName["CZ"] != 1 || byName["Y"] != 3 || byName["H"] != 3 {
		t.Fatalf("schedule: %v", byName)
	}
}

func TestASAPMeasurementDuration(t *testing.T) {
	c := &ir.Program{NumQubits: 1, Gates: []ir.Gate{
		{Name: "MEASZ", Qubits: []int{0}, Measure: true},
		lin("X", 0),
	}}
	s := asap(t, c)
	if s.Starts[1] != DefaultMeasureCycles {
		t.Fatalf("gate after measurement starts at %d, want %d", s.Starts[1], DefaultMeasureCycles)
	}
}

// Property: ASAP never reorders gates sharing a qubit, and no qubit runs
// two gates at once.
func TestASAPDependencyPreservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 5
		rng := newRand(seed)
		c := &ir.Program{NumQubits: 4}
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
		// Rebuild per-qubit busy intervals and check for overlap; also
		// check program order is respected per qubit.
		type iv struct{ start, end int64 }
		busy := map[int][]iv{}
		for i, g := range c.Gates {
			start := c.Starts[i]
			for _, q := range g.Qubits {
				end := start + g.Duration()
				for _, other := range busy[q] {
					if start < other.end && other.start < end {
						return false
					}
				}
				if n := len(busy[q]); n > 0 && busy[q][n-1].start >= start {
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

func TestCircuitValidate(t *testing.T) {
	bad := []*ir.Program{
		{NumQubits: 2, Gates: []ir.Gate{{Name: "X", Qubits: []int{5}}}},
		{NumQubits: 2, Gates: []ir.Gate{{Name: "X", Qubits: nil}}},
		{NumQubits: 2, Gates: []ir.Gate{{Name: "CZ", Qubits: []int{1, 1}}}},
		{NumQubits: 2, Gates: []ir.Gate{{Name: "X", Qubits: []int{0, 1, 0}}}},
	}
	for i, c := range bad {
		if err := PassValidate().Run(c); err == nil {
			t.Errorf("case %d: bad circuit accepted", i)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Spec: TS2, VLIWWidth: 1}).Validate(); err == nil {
		t.Error("ts2 with w=1 accepted")
	}
	if err := (Options{Spec: TS3, VLIWWidth: 1}).Validate(); err == nil {
		t.Error("ts3 without PI width accepted")
	}
	if err := (Options{Spec: TS1, VLIWWidth: 0}).Validate(); err == nil {
		t.Error("zero width accepted")
	}
}

// Hand-checkable counting example: 3 points, known ops.
func TestCountByHand(t *testing.T) {
	// q0: X(c0) Y(c1) Z(c2); q1: X(c0) X(c1).
	c := &ir.Program{NumQubits: 2, Gates: []ir.Gate{
		lin("X", 0), lin("Y", 0), lin("Z", 0),
		lin("X", 1), lin("X", 1),
	}}
	s := asap(t, c)
	// Points: c0 {X0,X1}, c1 {Y0,X1}, c2 {Z0}.
	cases := []struct {
		opt  Options
		want int64
	}{
		// ts1 w1: points c1,c2 need QWAITs (c0 opens at cycle 0): 2 + ops 5 = 7.
		{Options{Spec: TS1, VLIWWidth: 1}, 7},
		// ts1 w2: 2 + ceil(2/2)+ceil(2/2)+ceil(1/2) = 2+3 = 5.
		{Options{Spec: TS1, VLIWWidth: 2}, 5},
		// ts2 w2: c0: ceil(2/2)=1; c1: ceil(3/2)=2; c2: ceil(2/2)=1 -> 4.
		{Options{Spec: TS2, VLIWWidth: 2}, 4},
		// ts3 wPI1 w1: intervals 1,1 fit PI: only ops = 5.
		{Options{Spec: TS3, WPI: 1, VLIWWidth: 1}, 5},
		// SOMQ at c0 merges X0,X1 into one op: ts3 w1 SOMQ: 1+2+1 = 4.
		{Options{Spec: TS3, WPI: 1, SOMQ: true, VLIWWidth: 1}, 4},
	}
	for _, tc := range cases {
		r, err := Count(s, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Instructions != tc.want {
			t.Errorf("%v: instructions = %d, want %d", tc.opt, r.Instructions, tc.want)
		}
	}
}

func TestCountLongIntervalNeedsQWAIT(t *testing.T) {
	// Measurement (15 cycles) then a gate: interval 15 exceeds wPI=3.
	c := &ir.Program{NumQubits: 1, Gates: []ir.Gate{
		{Name: "MEASZ", Qubits: []int{0}, Measure: true},
		lin("X", 0),
	}}
	s := asap(t, c)
	r, err := Count(s, Options{Spec: TS3, WPI: 3, VLIWWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.QWaits != 1 {
		t.Fatalf("QWaits = %d, want 1 (interval 15 > max PI 7)", r.QWaits)
	}
	r, err = Count(s, Options{Spec: TS3, WPI: 4, VLIWWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.QWaits != 0 {
		t.Fatalf("QWaits = %d, want 0 (interval 15 fits 4-bit PI)", r.QWaits)
	}
}

// Property: instruction count is monotonically non-increasing in width
// and never below the bundle-word lower bound.
func TestCountMonotoneInWidth(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		c := &ir.Program{NumQubits: 5}
		for i := 0; i < 60; i++ {
			c.Gates = append(c.Gates, ir.Gate{Name: []string{"X", "Y", "H"}[rng.Intn(3)],
				Qubits: []int{rng.Intn(5)}})
		}
		if err := schedule(c, false); err != nil {
			return false
		}
		prev := int64(1 << 62)
		for w := 1; w <= 4; w++ {
			r, err := Count(c, Options{Spec: TS3, WPI: 3, VLIWWidth: w})
			if err != nil {
				return false
			}
			if r.Instructions > prev {
				return false
			}
			prev = r.Instructions
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: SOMQ never increases the instruction count.
func TestSOMQNeverHurts(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		c := &ir.Program{NumQubits: 6}
		for i := 0; i < 80; i++ {
			c.Gates = append(c.Gates, ir.Gate{Name: []string{"X", "Y"}[rng.Intn(2)],
				Qubits: []int{rng.Intn(6)}})
		}
		if err := schedule(c, false); err != nil {
			return false
		}
		for w := 1; w <= 3; w++ {
			plain, err1 := Count(c, Options{Spec: TS3, WPI: 3, VLIWWidth: w})
			somq, err2 := Count(c, Options{Spec: TS3, WPI: 3, SOMQ: true, VLIWWidth: w})
			if err1 != nil || err2 != nil || somq.Instructions > plain.Instructions {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
