package microarch

import (
	"fmt"

	"eqasm/internal/isa"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
)

// gateEvent is a device operation queued in the timing control unit,
// awaiting its timing point. The struct is kept compact (it is copied
// through the event heap on every push and pop): dispatch reads the
// operation definition, microinstructions, precomputed duration and
// classified kernel from the pre-resolved plan operation.
type gateEvent struct {
	cycle int64
	seq   int64 // insertion order for stable triggering
	op    *plan.BundleOp
	qubit int32 // acting qubit (source qubit for two-qubit operations)
	tgt   int32 // target qubit for two-qubit operations
	pc    int32
	kind  eventKind
	// fuse is the site's fusion annotation when the machine executes
	// the plan with fusion (nil otherwise): an elided constituent skips
	// the backend application, an anchor applies the precomposed
	// kernel. All other dispatch semantics — triggering, collision
	// checks, timing, device trace, stats — are unchanged either way.
	fuse *plan.FusedKernel
}

type eventKind uint8

const (
	evGate1 eventKind = iota
	evGate2
	evMeasure
)

// eventHeap is a binary min-heap ordering events by trigger cycle,
// then insertion order. It is hand-rolled rather than built on
// container/heap: the interface-based API boxes every gateEvent into
// an allocation on push, which dominated the per-shot profile.
type eventHeap []gateEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// push adds an event, keeping the heap order.
func (h *eventHeap) push(e gateEvent) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() gateEvent {
	old := *h
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	old[n] = gateEvent{}
	*h = old[:n]
	(*h).siftDown(0)
	return e
}

func (m *Machine) pushEvent(e gateEvent) {
	if cap := m.cfg.EventQueueCapacity; cap > 0 && len(m.events) >= cap {
		m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick,
			Msg: fmt.Sprintf("event queue overflow: %d operations buffered (capacity %d)", len(m.events), cap)})
		return
	}
	e.seq = m.eventSeq
	m.eventSeq++
	m.events.push(e)
}

// pendingResult is a measurement result in flight from the discrimination
// unit back into the Central Controller.
type pendingResult struct {
	qubit     int
	bit       int
	flagTick  int64 // execution flag registers update (fast path)
	qiTick    int64 // Qi write-back / Ci decrement (CFC path)
	resultNs  int64 // when the result entered the controller
	triggerNs int64
	// src is the shot's measurement-call ordinal that produced bit (the
	// shot recording's link from a record to its replayed bit).
	src      int32
	flagDone bool
	qiDone   bool
}

// triggerCycle runs the timing controller for one quantum cycle: every
// device operation whose timing point equals the cycle is triggered, then
// gated by fast conditional execution, then released to the
// analog-digital interface (the simulated chip).
func (m *Machine) triggerCycle(cycle int64) {
	for len(m.events) > 0 && m.events[0].cycle <= cycle {
		e := m.events.pop()
		m.stats.QuantumOpsTriggered++
		m.dispatch(&e)
		if m.err != nil {
			return
		}
	}
}

func (m *Machine) dispatch(e *gateEvent) {
	tNs := e.cycle * m.CycleNs()
	def, micro, durNs := e.op.Def, e.op.Micro, e.op.DurNs
	outNs := tNs + int64(m.cfg.OutputDelayNs)
	qubit, tgt := int(e.qubit), int(e.tgt)
	switch e.kind {
	case evGate1:
		mo := micro[0]
		// Fast conditional execution: the selected execution flag of the
		// target qubit decides go/no-go after triggering (Section 3.5).
		if !m.execFlag(qubit, mo.CondSel) {
			m.stats.OpsCancelled++
			m.record(DeviceOp{TimeNs: outNs, Cycle: e.cycle, Channel: mo.Channel,
				Device: qubit, Codeword: mo.Codeword, OpName: def.Name,
				Qubit: qubit, Cancelled: true})
			return
		}
		if !m.markBusy(e, def, qubit) {
			return
		}
		m.idleUpTo(qubit, tNs)
		// Parametric sites resolve their kernel through the loaded
		// binding's patch table; everything else was classified at
		// plan-build time. The spec's matrix feeds the generic path
		// too: a parametric def's Unitary1 is a placeholder.
		sp := &e.op.Spec1
		switch {
		case e.fuse != nil:
			// Fused site: an anchor applies the whole run's precomposed
			// kernel; an elided constituent applies nothing (its unitary
			// is folded into the run's anchor).
			sp = &e.fuse.Spec1
			if e.fuse.Skip {
				sp = nil
			}
		case e.op.Param != nil:
			sp = m.binding.Spec(e.op.Param.Slot)
		}
		if sp != nil {
			m.chip(chipCall{kind: callApply1, q: e.qubit, dur: durNs, sp1: sp})
		}
		m.qubitLocalNs[qubit] = float64(tNs) + durNs
		m.record(DeviceOp{TimeNs: outNs, Cycle: e.cycle, Channel: mo.Channel,
			Device: qubit, Codeword: mo.Codeword, OpName: def.Name, Qubit: qubit})
	case evGate2:
		if !m.markBusy(e, def, qubit) || !m.markBusy(e, def, tgt) {
			return
		}
		m.idleUpTo(qubit, tNs)
		m.idleUpTo(tgt, tNs)
		c := chipCall{kind: callApply2, q: e.qubit, t: e.tgt, dur: durNs, sp2: e.op.Spec2}
		switch {
		case e.fuse != nil:
			// Fused pair site: never the CZ shortcut — the precomposed
			// product is whatever the run multiplied out to. An elided
			// constituent carries no kernel.
			c.sp2 = e.fuse.Spec2
		case m.specBE == nil && def.Unitary2 == quantum.CZ:
			c.kind = callCZ
		}
		if c.sp2 != nil {
			m.chip(c)
		}
		m.qubitLocalNs[qubit] = float64(tNs) + durNs
		m.qubitLocalNs[tgt] = float64(tNs) + durNs
		// Two flux pulses, one per qubit of the pair (µ-op_src, µ-op_tgt),
		// with distinct control-store codewords.
		src, dst := micro[0], micro[1]
		m.record(DeviceOp{TimeNs: outNs, Cycle: e.cycle, Channel: src.Channel,
			Device: qubit, Codeword: src.Codeword, OpName: def.Name, Qubit: qubit})
		m.record(DeviceOp{TimeNs: outNs, Cycle: e.cycle, Channel: dst.Channel,
			Device: tgt, Codeword: dst.Codeword, OpName: def.Name, Qubit: tgt})
	case evMeasure:
		if !m.markBusy(e, def, qubit) {
			return
		}
		idx := m.measIssued[qubit]
		m.measIssued[qubit]++
		var bit int
		if m.cfg.MockMeasure != nil {
			bit = m.chip(chipCall{kind: callMock, q: e.qubit, t: int32(idx)})
		} else {
			m.idleUpTo(qubit, tNs)
			bit = m.chip(chipCall{kind: callMeasure, q: e.qubit, dur: durNs})
			m.qubitLocalNs[qubit] = float64(tNs) + durNs
		}
		resultTick := (e.cycle + int64(def.DurationCycles)) * int64(m.cfg.CycleTicks)
		resultNs := resultTick * int64(m.cfg.ClassicalTickNs)
		r := pendingResult{
			qubit:     qubit,
			bit:       bit,
			flagTick:  resultTick + int64(m.cfg.ResultToFlagTicks),
			qiTick:    resultTick + int64(m.cfg.ResultToQiTicks),
			resultNs:  resultNs,
			triggerNs: tNs,
			src:       m.shotMeasures,
		}
		m.shotMeasures++
		if r.flagTick < m.nextResultTick {
			m.nextResultTick = r.flagTick
		}
		if r.qiTick < m.nextResultTick {
			m.nextResultTick = r.qiTick
		}
		m.results = append(m.results, r)
		m.record(DeviceOp{TimeNs: outNs, Cycle: e.cycle, Channel: isa.ChanMeasure,
			Device: m.cfg.Topo.Feedline(qubit), Codeword: micro[0].Codeword,
			OpName: def.Name, Qubit: qubit})
	}
}

// deliverResults completes measurement write-backs whose paths have
// reached their destinations: the fast path updates the execution flag
// registers, the slow path writes Qi and decrements Ci (releasing any
// stalled FMR).
func (m *Machine) deliverResults() {
	// nextResultTick is the earliest pending write-back: until the
	// clock reaches it the scan below cannot deliver anything, so the
	// per-tick cost is two compares.
	if len(m.results) == 0 || m.tick < m.nextResultTick {
		return
	}
	next := int64(noResultPending)
	out := m.results[:0]
	for _, r := range m.results {
		if !r.flagDone && r.flagTick <= m.tick {
			m.execPrev[r.qubit] = m.execLast[r.qubit]
			m.havePrev[r.qubit] = m.haveLast[r.qubit]
			m.execLast[r.qubit] = uint8(r.bit)
			m.haveLast[r.qubit] = true
			r.flagDone = true
		}
		if !r.qiDone && r.qiTick <= m.tick {
			m.qResults[r.qubit] = uint8(r.bit)
			m.measCounters[r.qubit]--
			r.qiDone = true
			m.measRec = append(m.measRec, MeasurementRecord{
				Qubit: r.qubit, Result: r.bit,
				TriggerNs: r.triggerNs, ResultNs: r.resultNs,
			})
			if m.recording {
				m.rec.measSrc = append(m.rec.measSrc, r.src)
			}
		}
		if !r.flagDone || !r.qiDone {
			if !r.flagDone && r.flagTick < next {
				next = r.flagTick
			}
			if !r.qiDone && r.qiTick < next {
				next = r.qiTick
			}
			out = append(out, r)
		}
	}
	m.results = out
	m.nextResultTick = next
}

// markBusy checks that qubit q is not still executing an earlier pulse
// when e triggers, and reserves it for e's duration. Overlapping pulses
// on one qubit are a control error that stops the processor.
func (m *Machine) markBusy(e *gateEvent, def *isa.OpDef, q int) bool {
	if e.cycle < m.busyUntil[q] {
		m.fail(&CollisionError{PC: int(e.pc), Qubit: q, Cycle: e.cycle,
			Ops: [2]string{"<pulse in progress>", def.Name}})
		return false
	}
	m.busyUntil[q] = e.cycle + int64(def.DurationCycles)
	return true
}

// execFlag evaluates the four instantiated execution-flag logics
// (Section 4.3) for qubit q.
func (m *Machine) execFlag(q int, sel isa.ExecFlagSel) bool {
	switch sel {
	case isa.FlagAlways:
		return true
	case isa.FlagLastOne:
		return m.haveLast[q] && m.execLast[q] == 1
	case isa.FlagLastZero:
		return m.haveLast[q] && m.execLast[q] == 0
	case isa.FlagLastTwoEqual:
		return m.haveLast[q] && m.havePrev[q] && m.execLast[q] == m.execPrev[q]
	}
	return false
}

// idleUpTo exposes qubit q to decoherence up to absolute time tNs.
func (m *Machine) idleUpTo(q int, tNs int64) {
	if gap := float64(tNs) - m.qubitLocalNs[q]; gap > 0 {
		m.chip(chipCall{kind: callIdle, q: int32(q), dur: gap})
		m.qubitLocalNs[q] = float64(tNs)
	}
}

func (m *Machine) record(op DeviceOp) {
	if m.cfg.RecordDeviceOps {
		m.trace = append(m.trace, op)
	}
}
