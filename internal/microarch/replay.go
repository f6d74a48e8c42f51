package microarch

import (
	"eqasm/internal/isa"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
)

// Shot replay. A measurement can change what a program does, or when,
// only through eQASM's two feedback paths: fast conditional execution
// (an operation gated by an execution flag) and comprehensive feedback
// control (FMR reading Qi into a GPR). A plan with neither
// (plan.Executable.ShotInvariant) runs the same timing-queue schedule on
// every shot from power-on: the same instructions retire at the same
// ticks, the same device operations trigger at the same cycles, and the
// chip sees the same ordered calls. Only the chip's random draws differ.
//
// The machine therefore runs such a plan's first shot after a load in
// full, recording the ordered backend calls, the result template (which
// measurement produced each record, and when) and the final
// architectural state. Every later shot that starts from Reset makes the
// recorded backend calls in order — so the chip consumes its random
// stream exactly as the full machine would — then fills the measured
// bits into the template and restores the recorded state. A fault is
// deterministic, so it surfaces on the recording shot and nothing is
// recorded. Loading a plan and host writes to registers or data memory
// (SetGPR, WriteWord) discard the recording.

// maxRecordedCalls bounds a recording. A feedback-free program can
// still loop for as long as the watchdog allows; a shot making more
// chip calls than this is not recorded, and the plan runs the full
// machine until it is reloaded.
const maxRecordedCalls = 1 << 18

// callKind selects the backend method of a recorded chip call.
type callKind uint8

const (
	callIdle callKind = iota
	callApply1
	callApply2
	callCZ
	callMeasure
	callMock
)

// chipCall is one backend call of a shot: the qubit (the source for
// two-qubit calls), the target of a two-qubit call or the per-qubit
// measurement index handed to Config.MockMeasure, the duration, and the
// kernel spec, which points into the loaded plan or its binding.
type chipCall struct {
	kind callKind
	q, t int32
	dur  float64
	sp1  *quantum.Gate1Spec
	sp2  *quantum.Gate2Spec
}

// shotRecording is what replay needs of a recorded shot. Its buffers
// belong to the machine and are reused across recordings.
type shotRecording struct {
	// valid: the recording is complete; tooLong: a recording attempt
	// overran maxRecordedCalls.
	valid   bool
	tooLong bool
	calls   []chipCall
	// meas is the recorded shot's measurement record; measSrc[i] is the
	// ordinal (among the shot's measurement calls) of the call whose
	// bit meas[i] reports. bits is the replay's scratch for those bits.
	meas    []MeasurementRecord
	measSrc []int32
	bits    []uint8
	stats   Stats
	trace   []DeviceOp

	// Final architectural state.
	pc             int
	tick           int64
	lastPointCycle int64
	timelineLive   bool
	cmpFlags       isa.ComparisonFlags
	gpr            []uint32
	mem            []byte
	sRegs, tRegs   []uint64
	sRegsHi        [][]uint64
	tRegsHi        [][]uint64
	sSets, tSets   []*plan.TargetSet
	sDirty, tDirty []uint8
}

// discard drops the recording, releasing its references into the plan.
func (r *shotRecording) discard() {
	r.valid, r.tooLong = false, false
	clear(r.calls)
	r.calls = r.calls[:0]
}

// chip makes one backend call, appending it to the recording while a
// shot is being recorded. It returns the measured bit of a measurement
// call.
func (m *Machine) chip(c chipCall) int {
	if m.recording {
		if len(m.rec.calls) < maxRecordedCalls {
			m.rec.calls = append(m.rec.calls, c)
		} else {
			m.recording = false
			m.rec.discard()
			m.rec.tooLong = true
		}
	}
	return m.call(&c)
}

// call dispatches one chip call to the backend.
func (m *Machine) call(c *chipCall) int {
	q := int(c.q)
	switch c.kind {
	case callIdle:
		m.backend.Idle(q, c.dur)
	case callApply1:
		if m.specBE != nil {
			m.specBE.Apply1Spec(c.sp1, q, c.dur)
		} else {
			m.backend.Apply1(c.sp1.U, q, c.dur)
		}
	case callApply2:
		if m.specBE != nil {
			m.specBE.Apply2Spec(c.sp2, q, int(c.t), c.dur)
		} else {
			m.backend.Apply2(c.sp2.U, q, int(c.t), c.dur)
		}
	case callCZ:
		m.backend.ApplyCZ(q, int(c.t), c.dur)
	case callMeasure:
		return m.backend.Measure(q, c.dur)
	case callMock:
		// Mock discrimination (paper: UHFQC programmed to generate mock
		// results, no qubits attached).
		return m.cfg.MockMeasure(q, int(c.t)) & 1
	}
	return 0
}

// startRecording begins recording the shot about to run.
func (m *Machine) startRecording() {
	m.rec.discard()
	m.rec.measSrc = m.rec.measSrc[:0]
	m.recording = true
}

// saveRecording completes a recording after its shot ran to STOP.
func (m *Machine) saveRecording() {
	r := &m.rec
	r.meas = append(r.meas[:0], m.measRec...)
	r.stats = m.stats
	r.trace = append(r.trace[:0], m.trace...)
	r.pc, r.tick, r.lastPointCycle, r.timelineLive = m.pc, m.tick, m.lastPointCycle, m.timelineLive
	r.cmpFlags = m.cmpFlags
	r.gpr = append(r.gpr[:0], m.gpr...)
	r.mem = append(r.mem[:0], m.mem[:m.memDirtyHi]...)
	r.sRegs = append(r.sRegs[:0], m.sRegs...)
	r.tRegs = append(r.tRegs[:0], m.tRegs...)
	r.sRegsHi = append(r.sRegsHi[:0], m.sRegsHi...)
	r.tRegsHi = append(r.tRegsHi[:0], m.tRegsHi...)
	r.sSets = append(r.sSets[:0], m.sSets...)
	r.tSets = append(r.tSets[:0], m.tSets...)
	r.sDirty = append(r.sDirty[:0], m.sSetDirty...)
	r.tDirty = append(r.tDirty[:0], m.tSetDirty...)
	r.valid = true
}

// replay runs one shot from the recording. The machine has just been
// Reset, so restoring the recorded architectural state over it
// reproduces the full machine's post-shot state.
func (m *Machine) replay() {
	r := &m.rec
	bits := r.bits[:0]
	for i := range r.calls {
		c := &r.calls[i]
		bit := m.call(c)
		if c.kind >= callMeasure {
			bits = append(bits, uint8(bit))
		}
	}
	r.bits = bits
	m.measRec = append(m.measRec[:0], r.meas...)
	for i, src := range r.measSrc {
		rec := &m.measRec[i]
		rec.Result = int(bits[src])
		m.qResults[rec.Qubit] = bits[src]
	}
	m.stats = r.stats
	m.trace = append(m.trace[:0], r.trace...)
	m.pc, m.tick, m.lastPointCycle, m.timelineLive = r.pc, r.tick, r.lastPointCycle, r.timelineLive
	m.halted = true
	m.cmpFlags = r.cmpFlags
	copy(m.gpr, r.gpr)
	copy(m.mem, r.mem)
	m.markMemWritten(len(r.mem))
	copy(m.sRegs, r.sRegs)
	copy(m.tRegs, r.tRegs)
	copy(m.sRegsHi, r.sRegsHi)
	copy(m.tRegsHi, r.tRegsHi)
	copy(m.sSets, r.sSets)
	copy(m.tSets, r.tSets)
	for _, a := range r.sDirty {
		m.markSSetDirty(a)
	}
	for _, a := range r.tDirty {
		m.markTSetDirty(a)
	}
}
