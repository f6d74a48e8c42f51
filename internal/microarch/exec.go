package microarch

import (
	"encoding/binary"
	"fmt"

	"eqasm/internal/isa"
	"eqasm/internal/plan"
)

// execute retires one pre-lowered instruction in the classical
// pipeline. Quantum bundles are forwarded to the quantum pipeline
// (Section 4.3); both happen within the issuing tick, with the quantum
// front-end latency modelled when events are timestamped.
func (m *Machine) execute() {
	if m.pc < 0 || m.pc >= len(m.pinst) {
		m.fail(&RuntimeError{PC: m.pc, Tick: m.tick, Msg: "program counter ran off the instruction memory"})
		return
	}
	ins := &m.pinst[m.pc]
	m.stats.InstructionsExecuted++
	advance := true
	switch ins.Op {
	case isa.OpNOP:
	case isa.OpSTOP:
		m.halted = true
	case isa.OpCMP:
		m.cmpFlags = isa.Compare(m.gpr[ins.Rs], m.gpr[ins.Rt])
	case isa.OpBR:
		if m.cmpFlags.Test(ins.Cond) {
			m.pc += int(ins.Imm)
			m.stallTicks += m.cfg.BranchPenaltyTicks
			advance = false
		}
	case isa.OpFBR:
		if m.cmpFlags.Test(ins.Cond) {
			m.gpr[ins.Rd] = 1
		} else {
			m.gpr[ins.Rd] = 0
		}
	case isa.OpLDI:
		m.gpr[ins.Rd] = uint32(ins.Imm)
	case isa.OpLDUI:
		m.gpr[ins.Rd] = uint32(ins.Imm)<<17 | m.gpr[ins.Rs]&0x1FFFF
	case isa.OpLD:
		addr := int(int32(m.gpr[ins.Rt]) + ins.Imm)
		if addr < 0 || addr+4 > len(m.mem) {
			m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick,
				Msg: "load address out of data memory"})
			return
		}
		m.gpr[ins.Rd] = binary.LittleEndian.Uint32(m.mem[addr:])
	case isa.OpST:
		addr := int(int32(m.gpr[ins.Rt]) + ins.Imm)
		if addr < 0 || addr+4 > len(m.mem) {
			m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick,
				Msg: "store address out of data memory"})
			return
		}
		m.markMemWritten(addr + 4)
		binary.LittleEndian.PutUint32(m.mem[addr:], m.gpr[ins.Rs])
	case isa.OpFMR:
		if int(ins.Qi) >= len(m.measCounters) {
			m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick,
				Msg: "FMR addresses a qubit beyond the chip"})
			return
		}
		// Section 3.6: if Qi is invalid (pending measurements), the
		// pipeline stalls until it becomes valid again.
		if m.measCounters[ins.Qi] > 0 {
			m.fmrStalled = true
			m.stats.InstructionsExecuted-- // retires when the stall clears
			return
		}
		m.gpr[ins.Rd] = uint32(m.qResults[ins.Qi])
	case isa.OpAND:
		m.gpr[ins.Rd] = m.gpr[ins.Rs] & m.gpr[ins.Rt]
	case isa.OpOR:
		m.gpr[ins.Rd] = m.gpr[ins.Rs] | m.gpr[ins.Rt]
	case isa.OpXOR:
		m.gpr[ins.Rd] = m.gpr[ins.Rs] ^ m.gpr[ins.Rt]
	case isa.OpNOT:
		m.gpr[ins.Rd] = ^m.gpr[ins.Rt]
	case isa.OpADD:
		m.gpr[ins.Rd] = m.gpr[ins.Rs] + m.gpr[ins.Rt]
	case isa.OpSUB:
		m.gpr[ins.Rd] = m.gpr[ins.Rs] - m.gpr[ins.Rt]
	case isa.OpQWAIT:
		m.reserveWait(int64(ins.Imm))
	case isa.OpQWAITR:
		// Only the least significant 20 bits specify the waiting time
		// (Section 4.2).
		m.reserveWait(int64(m.gpr[ins.Rs] & 0xFFFFF))
	case isa.OpSMIS:
		// The architectural register and its pre-expanded view update
		// together: SReg() reads stay exact, bundles read the expansion.
		// Slots taking a non-empty set join the dirty list the next
		// reset restores.
		m.sRegs[ins.Addr] = ins.Mask
		m.sRegsHi[ins.Addr] = ins.MaskHi
		if ins.Targets != plan.EmptyTargets {
			m.markSSetDirty(ins.Addr)
		}
		m.sSets[ins.Addr] = ins.Targets
	case isa.OpSMIT:
		m.tRegs[ins.Addr] = ins.Mask
		m.tRegsHi[ins.Addr] = ins.MaskHi
		if ins.Targets != plan.EmptyTargets {
			m.markTSetDirty(ins.Addr)
		}
		m.tSets[ins.Addr] = ins.Targets
	case isa.OpBundle:
		m.issue(ins.Bundle)
	default:
		m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick, Msg: "unimplemented opcode"})
		return
	}
	if advance && m.err == nil {
		m.pc++
	}
}

// retryFMR re-checks the stalled FMR each tick; when the Ci counter drops
// to zero the fetch completes and the pipeline resumes.
func (m *Machine) retryFMR() {
	ins := &m.pinst[m.pc]
	if m.measCounters[ins.Qi] > 0 {
		return
	}
	m.gpr[ins.Rd] = uint32(m.qResults[ins.Qi])
	m.fmrStalled = false
	m.stats.InstructionsExecuted++
	m.pc++
}

// issue runs a quantum bundle through the VLIW front end: PI
// advances the timeline, then each operation — decoded by the microcode
// unit and its target register resolved to per-qubit micro-operations
// when the plan was built — passes the operation combination stage's
// collision check before its device events reach the timing unit.
func (m *Machine) issue(bu *plan.Bundle) {
	m.ensureTimeline()
	m.stats.BundlesIssued++
	m.lastPointCycle += bu.PI
	if len(bu.Ops) == 0 {
		return
	}
	point := m.lastPointCycle
	if point < m.earliestCycle() {
		m.fail(&TimingViolationError{PC: m.pc, PointCycle: point, EarliestCycle: m.earliestCycle()})
		return
	}
	for i := range bu.Ops {
		op := &bu.Ops[i]
		if op.ErrMsg != "" {
			m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick, Msg: op.ErrMsg})
			return
		}
		if op.Kind == plan.KindGate2 {
			m.issuePair(op, m.tSets[op.Target], point)
		} else {
			m.issueSingle(op, m.sSets[op.Target], point)
		}
		if m.err != nil {
			return
		}
	}
}

func (m *Machine) issueSingle(op *plan.BundleOp, ts *plan.TargetSet, point int64) {
	if ts.SingleErr != "" {
		m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick, Msg: ts.SingleErr})
		return
	}
	measure := op.Kind == plan.KindMeasure
	// Fusion annotations apply only when the machine runs fused and the
	// live register still matches the width the pass assumed (registers
	// survive program uploads; a mismatched set falls back to per-site
	// kernels).
	fused := m.fused && op.Fused != nil && len(op.Fused) == len(ts.Qubits)
	for i, q := range ts.Qubits {
		if !m.claim(q, point, op.Def.Name) {
			return
		}
		kind := evGate1
		if measure {
			kind = evMeasure
			if m.cfg.Topo.Feedline(q) < 0 {
				m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick,
					Msg: fmt.Sprintf("qubit %d has no feedline to measure through", q)})
				return
			}
			// Section 3.6 step 1: Qi is invalidated the moment the
			// measurement instruction is issued.
			m.measCounters[q]++
		}
		ev := gateEvent{cycle: point, kind: kind, op: op, qubit: int32(q), pc: int32(m.pc)}
		if fused {
			ev.fuse = op.Fused[i]
		}
		m.pushEvent(ev)
	}
}

func (m *Machine) issuePair(op *plan.BundleOp, ts *plan.TargetSet, point int64) {
	if ts.PairErr != "" {
		m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick, Msg: ts.PairErr})
		return
	}
	fused := m.fused && op.Fused != nil && len(op.Fused) == len(ts.Pairs)
	for i, pr := range ts.Pairs {
		if !m.claim(pr.Src, point, op.Def.Name) || !m.claim(pr.Tgt, point, op.Def.Name) {
			return
		}
		ev := gateEvent{cycle: point, kind: evGate2, op: op, qubit: int32(pr.Src), tgt: int32(pr.Tgt), pc: int32(m.pc)}
		if fused {
			ev.fuse = op.Fused[i]
		}
		m.pushEvent(ev)
	}
}
