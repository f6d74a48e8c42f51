// Package compiler is the quantum compiler backend of the eQASM stack
// (the second compilation step of Fig. 1), structured as a pass
// pipeline over the typed circuit IR of internal/ir: hardware-
// independent circuits (*ir.Program) are validated, optionally mapped
// onto the chip topology, scheduled (ASAP or ALAP) with gate durations,
// packed into SOMQ groups and VLIW bundles, given mask registers,
// lowered to explicit timing (ts1/ts3 with a configurable PI width,
// Section 4.2) and emitted as executable eQASM. Every stage is an
// inspectable Pass and NewPipeline assembles the standard sequence; the
// Fig. 7 instruction-counting mode (design-space exploration) is a
// Counter observer over the pack pass rather than a parallel code path,
// and Lift/Retarget run the flow backwards from eQASM to a circuit.
package compiler

import (
	"fmt"

	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

// Default durations by gate kind (Section 4.2: single-qubit 1 cycle,
// two-qubit 2 cycles, measurement 15 cycles).
const (
	DefaultSingleCycles  = ir.DefaultSingleCycles
	DefaultTwoCycles     = ir.DefaultTwoCycles
	DefaultMeasureCycles = ir.DefaultMeasureCycles
)

// Pass is one named, inspectable stage of the compiler pipeline.
type Pass struct {
	Name string
	Run  func(*ir.Program) error
}

// Observer inspects the program after each pass. Returning an error
// aborts the pipeline.
type Observer func(pass string, p *ir.Program) error

// Pipeline is an ordered pass list with observers.
type Pipeline struct {
	passes    []Pass
	observers []Observer
}

// Append adds passes to the end of the pipeline.
func (pl *Pipeline) Append(passes ...Pass) *Pipeline {
	pl.passes = append(pl.passes, passes...)
	return pl
}

// Observe registers an observer called after every pass.
func (pl *Pipeline) Observe(obs ...Observer) *Pipeline {
	pl.observers = append(pl.observers, obs...)
	return pl
}

// Passes lists the pipeline's pass names in order.
func (pl *Pipeline) Passes() []string {
	names := make([]string, len(pl.passes))
	for i, p := range pl.passes {
		names[i] = p.Name
	}
	return names
}

// Run drives the program through every pass in order, invoking the
// observers after each one. Pass errors are returned as-is (they carry
// their own "compiler:" context).
func (pl *Pipeline) Run(p *ir.Program) error {
	for _, pass := range pl.passes {
		if err := pass.Run(p); err != nil {
			return err
		}
		for _, obs := range pl.observers {
			if err := obs(pass.Name, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// PipelineConfig assembles the standard executable pipeline:
// validate → [map] → schedule (ASAP/ALAP) → pack (SOMQ/bundle grouping)
// → mask-register allocation → timing lowering (ts1/ts3, wPI) → emit.
type PipelineConfig struct {
	// Config resolves operation mnemonics; Topo validates qubit and pair
	// addressing; Inst bounds registers, PI width and VLIW width.
	Config *isa.OpConfig
	Topo   *topology.Topology
	Inst   isa.Instantiation

	// Map enables the topology-aware mapping pass; Layout optionally
	// places virtual qubit i on physical Layout[i] first (nil keeps the
	// identity placement).
	Map    bool
	Layout []int

	// ALAP selects as-late-as-possible scheduling (default ASAP).
	ALAP bool

	// Arch carries the Section 4.2 design knobs (timing-specification
	// method, PI width, SOMQ, VLIW width). Use DefaultArch for the
	// instantiation's adopted configuration; a zero WPI or VLIWWidth is
	// filled from the instantiation.
	Arch Options

	// InitWaitCycles idles the chip before the first operation
	// (initialisation by relaxation).
	InitWaitCycles int
	// AppendStop terminates the program with STOP.
	AppendStop bool
}

// DefaultArch returns the executable architecture of the instantiation:
// ts3 timing with its PI field width and VLIW width (Config 9 shape;
// SOMQ stays off until requested).
func DefaultArch(inst isa.Instantiation) Options {
	return Options{Spec: TS3, WPI: inst.WPI, VLIWWidth: inst.VLIWWidth}
}

// normalizeArch fills instantiation defaults and rejects architectures
// the binary encoding cannot carry.
func (c PipelineConfig) normalizeArch() (Options, error) {
	arch := c.Arch
	if arch.WPI == 0 {
		arch.WPI = c.Inst.WPI
	}
	if arch.VLIWWidth == 0 {
		arch.VLIWWidth = c.Inst.VLIWWidth
	}
	if err := arch.Validate(); err != nil {
		return Options{}, err
	}
	switch arch.Spec {
	case TS1, TS3:
	case TS2:
		return Options{}, fmt.Errorf("compiler: ts2 places QWAITs in bundle slots, which the binary bundle format cannot encode; ts2 is counting-only (use ts1 or ts3)")
	default:
		return Options{}, fmt.Errorf("compiler: unknown timing specification %d", arch.Spec)
	}
	if arch.Spec == TS3 && arch.WPI > c.Inst.WPI {
		return Options{}, fmt.Errorf("compiler: PI width %d exceeds the instantiation's %d-bit PI field", arch.WPI, c.Inst.WPI)
	}
	if arch.VLIWWidth > c.Inst.VLIWWidth {
		return Options{}, fmt.Errorf("compiler: VLIW width %d exceeds the instantiation's width %d", arch.VLIWWidth, c.Inst.VLIWWidth)
	}
	return arch, nil
}

// NewPipeline assembles the standard executable pipeline for the
// configuration. The returned pipeline expects a circuit-stage
// ir.Program and leaves the executable in Program.Code.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	arch, err := cfg.normalizeArch()
	if err != nil {
		return nil, err
	}
	pl := &Pipeline{}
	pl.Append(PassValidate())
	if cfg.Map {
		pl.Append(PassMap(cfg.Topo, cfg.Layout))
	}
	if cfg.ALAP {
		pl.Append(PassScheduleALAP())
	} else {
		pl.Append(PassScheduleASAP())
	}
	pl.Append(
		PassPack(cfg.Config, cfg.Topo, arch.SOMQ),
		PassAllocRegs(cfg.Inst),
		PassLowerTiming(arch, cfg.InitWaitCycles),
		PassEmit(arch, cfg.AppendStop),
	)
	return pl, nil
}
