package compiler

import (
	"fmt"

	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

// Lift recovers the hardware-independent quantum semantics of an eQASM
// program by removing the timing information, implementing the paper's
// conclusion: "by removing the timing information in the eQASM
// description, the quantum semantics of the program can be kept and
// further converted into another executable format targeting another
// hardware platform."
//
// Target-register writes are tracked symbolically; bundles expand to one
// gate per masked qubit (or pair); QWAIT(R), PI values and NOPs are
// dropped. Programs using classical control flow (branches, feedback)
// have data-dependent semantics and cannot be lifted to a static
// circuit; Lift reports an error for them.
func Lift(p *isa.Program, cfg *isa.OpConfig, topo *topology.Topology) (*ir.Program, error) {
	c := &ir.Program{NumQubits: topo.NumQubits}
	sRegs := map[uint8]uint64{}
	tRegs := map[uint8]uint64{}
	for idx, ins := range p.Instrs {
		switch ins.Op {
		case isa.OpSMIS:
			sRegs[ins.Addr] = ins.Mask
		case isa.OpSMIT:
			tRegs[ins.Addr] = ins.Mask
		case isa.OpQWAIT, isa.OpQWAITR, isa.OpNOP, isa.OpSTOP:
			// Timing and housekeeping: dropped.
		case isa.OpLDI:
			// Tolerated: immediate loads commonly set up QWAITR values.
		case isa.OpBundle:
			for _, q := range ins.QOps {
				def, ok := cfg.ByName(q.Name)
				if !ok {
					return nil, fmt.Errorf("compiler: instruction %d: operation %q not configured", idx, q.Name)
				}
				if def.Kind == isa.OpKindTwo {
					mask := tRegs[q.Target]
					for _, id := range isa.MaskQubits(mask) {
						if id >= len(topo.Edges) {
							return nil, fmt.Errorf("compiler: instruction %d: edge %d not on chip %q", idx, id, topo.Name)
						}
						e := topo.Edges[id]
						c.Gates = append(c.Gates, ir.Gate{
							Name:           q.Name,
							Qubits:         []int{e.Src, e.Tgt},
							DurationCycles: def.DurationCycles,
						})
					}
					continue
				}
				for _, qubit := range isa.MaskQubits(sRegs[q.Target]) {
					c.Gates = append(c.Gates, ir.Gate{
						Name:           q.Name,
						Qubits:         []int{qubit},
						DurationCycles: def.DurationCycles,
						Measure:        def.Kind == isa.OpKindMeasure,
						Angle:          q.Angle,
						Param:          q.Param,
					})
				}
			}
		default:
			return nil, fmt.Errorf("compiler: instruction %d (%s) uses classical control flow; lifting needs straight-line quantum semantics", idx, ins)
		}
	}
	return c, nil
}

// Remap returns a copy of the program's circuit with qubits renumbered
// through the mapping (the qubit mapping pass required when retargeting
// to another chip topology). Every qubit used by the circuit must be
// mapped.
func Remap(p *ir.Program, mapping map[int]int, newNumQubits int) (*ir.Program, error) {
	out := &ir.Program{Name: p.Name, NumQubits: newNumQubits}
	for i, g := range p.Gates {
		ng := g
		ng.Qubits = make([]int, len(g.Qubits))
		for k, q := range g.Qubits {
			nq, ok := mapping[q]
			if !ok {
				return nil, fmt.Errorf("compiler: gate %d uses unmapped qubit %d", i, q)
			}
			if nq < 0 || nq >= newNumQubits {
				return nil, fmt.Errorf("compiler: qubit %d maps to %d outside [0,%d)", q, nq, newNumQubits)
			}
			ng.Qubits[k] = nq
		}
		out.Gates = append(out.Gates, ng)
	}
	return out, nil
}

// Retarget lifts a program from one platform and compiles it for
// another through the destination's pipeline: the complete
// cross-platform conversion the paper's conclusion sketches. The
// mapping renames physical qubits; the lifted gates keep the durations
// the source configuration gives them when the destination pipeline
// reschedules them.
func Retarget(p *isa.Program, srcCfg *isa.OpConfig, srcTopo *topology.Topology,
	dst PipelineConfig, mapping map[int]int) (*isa.Program, error) {
	circ, err := Lift(p, srcCfg, srcTopo)
	if err != nil {
		return nil, err
	}
	remapped, err := Remap(circ, mapping, dst.Topo.NumQubits)
	if err != nil {
		return nil, err
	}
	pl, err := NewPipeline(dst)
	if err != nil {
		return nil, err
	}
	if err := pl.Run(remapped); err != nil {
		return nil, err
	}
	return remapped.Code, nil
}
