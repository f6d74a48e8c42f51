package plan

import (
	"fmt"
	"sort"

	"eqasm/internal/isa"
)

// This file is the microcode unit of Fig. 9: the Q control store is a
// lookup table translating each configured q-opcode into one
// micro-operation (single-qubit operations and measurements) or two
// (µ-op_src and µ-op_tgt for two-qubit operations), carrying the device
// codeword, channel, duration and execution-flag selection the rest of
// the quantum pipeline consumes. It is built from the same OpConfig that
// drives the assembler, closing the Section 3.2 consistency requirement.
// It lives in the plan package because the execution-plan builder is the
// component that resolves control-store entries ahead of time; the
// microarchitecture re-exports the types.

// MicroRole distinguishes the micro-operations of one instruction-level
// operation.
type MicroRole uint8

const (
	// RoleSingle is the single micro-operation of a one-qubit operation.
	RoleSingle MicroRole = iota
	// RoleSrc is applied to the source qubit of a selected pair.
	RoleSrc
	// RoleTgt is applied to the target qubit of a selected pair.
	RoleTgt
	// RoleMeasure starts readout.
	RoleMeasure
)

func (r MicroRole) String() string {
	switch r {
	case RoleSingle:
		return "µ-op_s"
	case RoleSrc:
		return "µ-op_src"
	case RoleTgt:
		return "µ-op_tgt"
	case RoleMeasure:
		return "µ-op_meas"
	}
	return fmt.Sprintf("MicroRole(%d)", uint8(r))
}

// MicroOp is one micro-operation held in the Q control store.
type MicroOp struct {
	// Codeword triggers pulse generation on the device (the q-opcode
	// extended with the role in the high bits, so µ-op_src and µ-op_tgt
	// of one operation carry distinct codewords).
	Codeword uint16
	// Channel is the device class the codeword is routed to.
	Channel isa.Channel
	// Role situates the micro-operation within its operation.
	Role MicroRole
	// DurationCycles is the pulse length.
	DurationCycles int
	// CondSel selects the execution flag gating this micro-operation
	// under fast conditional execution.
	CondSel isa.ExecFlagSel
}

// ControlStore is the Q control store: q-opcode to microinstruction
// lookup, built at configuration-upload time.
type ControlStore struct {
	entries map[uint16][]MicroOp
}

// BuildControlStore compiles an operation configuration into the store.
func BuildControlStore(cfg *isa.OpConfig) *ControlStore {
	cs := &ControlStore{entries: map[uint16][]MicroOp{}}
	for _, name := range cfg.Names() {
		def, _ := cfg.ByName(name)
		switch def.Kind {
		case isa.OpKindTwo:
			cs.entries[def.Opcode] = []MicroOp{
				{Codeword: roleCodeword(def.Opcode, RoleSrc), Channel: isa.ChanFlux,
					Role: RoleSrc, DurationCycles: def.DurationCycles, CondSel: def.CondSel},
				{Codeword: roleCodeword(def.Opcode, RoleTgt), Channel: isa.ChanFlux,
					Role: RoleTgt, DurationCycles: def.DurationCycles, CondSel: def.CondSel},
			}
		case isa.OpKindMeasure:
			cs.entries[def.Opcode] = []MicroOp{
				{Codeword: roleCodeword(def.Opcode, RoleMeasure), Channel: isa.ChanMeasure,
					Role: RoleMeasure, DurationCycles: def.DurationCycles, CondSel: def.CondSel},
			}
		default:
			cs.entries[def.Opcode] = []MicroOp{
				{Codeword: roleCodeword(def.Opcode, RoleSingle), Channel: def.Channel,
					Role: RoleSingle, DurationCycles: def.DurationCycles, CondSel: def.CondSel},
			}
		}
	}
	return cs
}

// roleCodeword packs the role above the 9-bit opcode field.
func roleCodeword(opcode uint16, role MicroRole) uint16 {
	return uint16(role)<<9 | opcode
}

// Lookup returns the microinstructions of a q-opcode.
func (cs *ControlStore) Lookup(opcode uint16) ([]MicroOp, bool) {
	ops, ok := cs.entries[opcode]
	return ops, ok
}

// Size returns the number of configured entries.
func (cs *ControlStore) Size() int { return len(cs.entries) }

// Opcodes lists the configured q-opcodes in ascending order.
func (cs *ControlStore) Opcodes() []uint16 {
	out := make([]uint16, 0, len(cs.entries))
	for op := range cs.entries {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
