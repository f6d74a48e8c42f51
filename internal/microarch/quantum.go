package microarch

import "fmt"

// OpSel is the two-bit micro-operation selection signal of Table 2,
// produced per qubit when a mask-addressed operation is resolved.
type OpSel uint8

const (
	// SelNone: no micro-operation for this qubit.
	SelNone OpSel = 0b00
	// SelSrc: apply the source micro-operation (qubit is the source of a
	// selected allowed pair).
	SelSrc OpSel = 0b01
	// SelTgt: apply the target micro-operation.
	SelTgt OpSel = 0b10
	// SelSingle: apply the single-qubit micro-operation.
	SelSingle OpSel = 0b11
)

func (s OpSel) String() string {
	switch s {
	case SelNone:
		return "none"
	case SelSrc:
		return "µ-op_src"
	case SelTgt:
		return "µ-op_tgt"
	case SelSingle:
		return "µ-op_s"
	}
	return fmt.Sprintf("OpSel(%d)", uint8(s))
}

// ResolveOpSelSingle computes the per-qubit selection signals for a
// single-qubit operation mask: '11' where the mask bit is set (Table 2).
func (m *Machine) ResolveOpSelSingle(mask uint64) []OpSel {
	sel := make([]OpSel, m.cfg.Topo.NumQubits)
	for q := range sel {
		if mask&(1<<uint(q)) != 0 {
			sel[q] = SelSingle
		}
	}
	return sel
}

// ResolveOpSelPair computes the per-qubit selection signals for a
// two-qubit operation mask over allowed-pair edge IDs: '01' for source
// qubits, '10' for target qubits, '00' otherwise (Table 2). For qubit 0
// on the surface-7 chip this reduces to the paper's
// OpSel0 = (T[0] | T[9]) :: (T[1] | T[8]) OR logic.
func (m *Machine) ResolveOpSelPair(mask uint64) ([]OpSel, error) {
	sel := make([]OpSel, m.cfg.Topo.NumQubits)
	for id, e := range m.cfg.Topo.Edges {
		if mask&(1<<uint(id)) == 0 {
			continue
		}
		for _, role := range []struct {
			q int
			s OpSel
		}{{e.Src, SelSrc}, {e.Tgt, SelTgt}} {
			if sel[role.q] != SelNone {
				return nil, fmt.Errorf("pair mask %#x selects two edges sharing qubit %d", mask, role.q)
			}
			sel[role.q] = role.s
		}
	}
	return sel, nil
}

// reserveWait implements QWAIT/QWAITR in the timestamp manager: a new
// timing point is generated at the specified interval after the last
// generated point (interval 0 keeps the same point, Section 3.1.2).
func (m *Machine) reserveWait(cycles int64) {
	m.ensureTimeline()
	if cycles < 0 {
		m.fail(&RuntimeError{PC: m.pc, Instr: m.current(), Tick: m.tick,
			Msg: "negative wait interval"})
		return
	}
	m.lastPointCycle += cycles
}

// ensureTimeline starts the timeline on the first quantum instruction —
// the paper's external start trigger — placing the origin a small slack
// after the point where the first micro-operations can reach the queues.
func (m *Machine) ensureTimeline() {
	if m.timelineLive {
		return
	}
	m.timelineLive = true
	m.lastPointCycle = m.earliestCycle() + int64(m.cfg.InitialSlackCycles)
}

// earliestCycle is the earliest timing point micro-operations issued this
// tick could still reach in time, given the quantum front-end depth.
func (m *Machine) earliestCycle() int64 {
	readyTick := m.tick + int64(m.cfg.QuantumPipelineTicks)
	ct := int64(m.cfg.CycleTicks)
	return (readyTick + ct - 1) / ct
}

// claim registers a qubit as busy at a timing point, failing on
// collisions: "if two different quantum bundle instructions specify a
// quantum operation on the same qubit, an error is raised, and the
// quantum processor stops" (Section 4.3). Timing points are monotone
// within a run, so only the qubit's most recent claim can collide.
func (m *Machine) claim(qubit int, cycle int64, opName string) bool {
	if m.claimCycle[qubit] == cycle {
		m.fail(&CollisionError{PC: m.pc, Qubit: qubit, Cycle: cycle, Ops: [2]string{m.claimOp[qubit], opName}})
		return false
	}
	m.claimCycle[qubit] = cycle
	m.claimOp[qubit] = opName
	return true
}
