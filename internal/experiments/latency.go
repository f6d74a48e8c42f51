package experiments

import (
	"errors"
	"fmt"

	"eqasm/internal/microarch"
)

// LatencyResult reports the two feedback latencies of Section 5: the time
// between the measurement result entering the Central Controller and the
// conditional operation's codeword leaving it, minimised over the
// feedback wait time (the paper measures ~92 ns for fast conditional
// execution and ~316 ns for CFC).
type LatencyResult struct {
	// FastCondNs is the fast-conditional-execution latency.
	FastCondNs int64
	// FastCondMinWaitCycles is the smallest QWAIT that gates correctly.
	FastCondMinWaitCycles int
	// CFCNs is the comprehensive-feedback-control latency.
	CFCNs int64
	// CFCMinWaitCycles is the smallest QWAIT without a timing violation.
	CFCMinWaitCycles int
}

// MeasureLatencies scans the feedback wait down to the minimum each
// mechanism supports and reports the resulting latencies.
func MeasureLatencies() (*LatencyResult, error) {
	res := &LatencyResult{}

	// Fast conditional execution: prepare |1> so the C_X must fire; find
	// the smallest wait where the execution flag has updated in time.
	for q := 15; q <= 120; q++ {
		m, err := newMachine(microarch.Config{RecordDeviceOps: true})
		if err != nil {
			return nil, err
		}
		src := fmt.Sprintf(`
SMIS S0, {0}
X S0
MEASZ S0
QWAIT %d
0, C_X S0
STOP
`, q)
		if err := runSource(m, src); err != nil {
			var verr *microarch.TimingViolationError
			if errors.As(err, &verr) {
				continue
			}
			return nil, err
		}
		lat, ok := condOpLatency(m, "C_X")
		if !ok {
			continue // flag not updated yet: operation was cancelled
		}
		res.FastCondMinWaitCycles = q
		res.FastCondNs = lat
		break
	}
	if res.FastCondNs == 0 {
		return nil, fmt.Errorf("experiments: fast-conditional latency scan failed")
	}

	// CFC: the Fig. 5 flow with the branch taken; find the smallest wait
	// without a timing violation.
	for q := 15; q <= 200; q++ {
		m, err := newMachine(microarch.Config{RecordDeviceOps: true})
		if err != nil {
			return nil, err
		}
		src := fmt.Sprintf(`
SMIS S0, {0}
LDI R0, 1
X S0
MEASZ S0
QWAIT %d
FMR R1, Q0
CMP R1, R0
BR EQ, eq_path
X S0
BR ALWAYS, done
eq_path:
Y S0
done:
STOP
`, q)
		if err := runSource(m, src); err != nil {
			var verr *microarch.TimingViolationError
			if errors.As(err, &verr) {
				continue
			}
			return nil, err
		}
		lat, ok := condOpLatency(m, "Y")
		if !ok {
			return nil, fmt.Errorf("experiments: CFC did not take the measured-1 path at wait %d", q)
		}
		res.CFCMinWaitCycles = q
		res.CFCNs = lat
		break
	}
	if res.CFCNs == 0 {
		return nil, fmt.Errorf("experiments: CFC latency scan failed")
	}
	return res, nil
}

// condOpLatency returns the time from the measurement result entering the
// controller to the named conditional operation's codeword leaving it.
func condOpLatency(m *microarch.Machine, opName string) (int64, bool) {
	recs := m.Measurements()
	if len(recs) == 0 {
		return 0, false
	}
	resultNs := recs[len(recs)-1].ResultNs
	for _, op := range m.DeviceTrace() {
		if op.OpName == opName && !op.Cancelled && op.TimeNs > resultNs {
			return op.TimeNs - resultNs, true
		}
	}
	return 0, false
}
