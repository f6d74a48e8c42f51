package microarch

import (
	"eqasm/internal/isa"
	"eqasm/internal/plan"
)

// The microcode unit of Fig. 9 (the Q control store, its
// microinstructions and roles) lives in internal/plan, where the
// decode-once execution-plan builder resolves control-store entries
// ahead of the timing-critical pipeline; these aliases expose it as
// part of the microarchitecture.

// MicroRole distinguishes the micro-operations of one instruction-level
// operation.
type MicroRole = plan.MicroRole

const (
	// RoleSingle is the single micro-operation of a one-qubit operation.
	RoleSingle = plan.RoleSingle
	// RoleSrc is applied to the source qubit of a selected pair.
	RoleSrc = plan.RoleSrc
	// RoleTgt is applied to the target qubit of a selected pair.
	RoleTgt = plan.RoleTgt
	// RoleMeasure starts readout.
	RoleMeasure = plan.RoleMeasure
)

// MicroOp is one micro-operation held in the Q control store.
type MicroOp = plan.MicroOp

// ControlStore is the Q control store: q-opcode to microinstruction
// lookup, built at configuration-upload time.
type ControlStore = plan.ControlStore

// BuildControlStore compiles an operation configuration into the store.
func BuildControlStore(cfg *isa.OpConfig) *ControlStore {
	return plan.BuildControlStore(cfg)
}
