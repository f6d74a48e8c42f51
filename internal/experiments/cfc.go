package experiments

import (
	"fmt"

	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/topology"
)

// CFCOptions configures the comprehensive-feedback-control verification:
// the Fig. 5 program run against a mock measurement unit, exactly as the
// paper verified CFC by programming the UHFQC to produce mock results and
// watching the controller's outputs on an oscilloscope.
type CFCOptions struct {
	// Rounds is the number of feedback iterations in the program loop.
	Rounds int
	// MockResults supplies the scripted measurement bit per round;
	// nil selects strict 0/1 alternation.
	MockResults func(round int) int
}

// CFCResult is the observed output sequence.
type CFCResult struct {
	// Ops is the sequence of operations observed on the target qubit's
	// microwave channel (X when the mock result was 0, Y when it was 1).
	Ops []string
	// Expected is the sequence implied by the mock script.
	Expected []string
	// Alternates reports Ops == Expected.
	Alternates bool
}

// RunCFC executes the looped Fig. 5 program under mock measurement
// results and checks that the program flow followed them.
func RunCFC(opts CFCOptions) (*CFCResult, error) {
	if opts.Rounds == 0 {
		opts.Rounds = 8
	}
	mock := opts.MockResults
	if mock == nil {
		mock = func(round int) int { return round % 2 }
	}
	m, err := newMachine(microarch.Config{
		Topo:            topology.Surface7(),
		RecordDeviceOps: true,
		MockMeasure: func(q, idx int) int {
			return mock(idx)
		},
	})
	if err != nil {
		return nil, err
	}
	src := fmt.Sprintf(`
SMIS S0, {0}
SMIS S1, {1}
LDI R0, 1
LDI R2, %d     # rounds
LDI R3, 0      # counter
LDI R4, 1
loop:
MEASZ S1
QWAIT 30
FMR R1, Q1     # fetch msmt result
CMP R1, R0     # compare
BR EQ, eq_path # jump if R0 == R1
X S0           # happen if msmt result is 0
BR ALWAYS, next
eq_path:
Y S0           # happen if msmt result is 1
next:
QWAIT 20
ADD R3, R3, R4
CMP R3, R2
BR LT, loop
STOP
`, opts.Rounds)
	if err := runSource(m, src); err != nil {
		return nil, err
	}
	res := &CFCResult{}
	for _, op := range m.DeviceTrace() {
		if op.Qubit == 0 && op.Channel == isa.ChanMicrowave && !op.Cancelled {
			res.Ops = append(res.Ops, op.OpName)
		}
	}
	for r := 0; r < opts.Rounds; r++ {
		if mock(r) == 1 {
			res.Expected = append(res.Expected, "Y")
		} else {
			res.Expected = append(res.Expected, "X")
		}
	}
	res.Alternates = len(res.Ops) == len(res.Expected)
	if res.Alternates {
		for i := range res.Ops {
			if res.Ops[i] != res.Expected[i] {
				res.Alternates = false
				break
			}
		}
	}
	return res, nil
}
