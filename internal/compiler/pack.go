package compiler

import (
	"fmt"
	"sort"
	"strconv"

	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

// PassPack is the SOMQ/bundle-packing pass: it groups each timing
// point's gates into combined quantum operations. With somq, gates
// sharing a mnemonic at one point merge into a single operation over a
// qubit (or pair) mask — the paper's single-operation-multiple-qubit
// addressing (Section 3.4.1); without it every gate stays its own
// group. In executable mode (cfg and topo non-nil) mnemonics are
// resolved against the operation configuration and operands validated
// against the chip; counting mode (nil cfg/topo) groups free-form gate
// names without masks, which is all the Fig. 7 Counter observer needs.
func PassPack(cfg *isa.OpConfig, topo *topology.Topology, somq bool) Pass {
	return Pass{Name: "pack", Run: func(p *ir.Program) error {
		return packProgram(p, cfg, topo, somq)
	}}
}

func packProgram(p *ir.Program, cfg *isa.OpConfig, topo *topology.Topology, somq bool) error {
	if !p.Scheduled() {
		return fmt.Errorf("compiler: the pack pass needs a scheduled program (run a scheduling pass first)")
	}
	p.Points = nil
	for _, idx := range p.Order {
		start := p.Starts[idx]
		if n := len(p.Points); n == 0 || p.Points[n-1].Cycle != start {
			p.Points = append(p.Points, ir.Point{Cycle: start})
		}
		pt := &p.Points[len(p.Points)-1]
		pt.Gates = append(pt.Gates, idx)
	}
	for i := range p.Points {
		if err := packPoint(p, &p.Points[i], cfg, topo, somq); err != nil {
			return err
		}
	}
	return nil
}

// packPoint converts one timing point's gates into combined operation
// groups, accumulating target masks and validating against the chip in
// executable mode.
func packPoint(p *ir.Program, pt *ir.Point, cfg *isa.OpConfig, topo *topology.Topology, somq bool) error {
	var groups []ir.Group
	index := map[string]int{}
	for _, gi := range pt.Gates {
		g := p.Gates[gi]
		two := g.IsTwoQubit()
		if cfg != nil {
			def, ok := cfg.ByName(g.Name)
			if !ok {
				return gateErr(g, "compiler: operation %q is not configured", g.Name)
			}
			two = def.Kind == isa.OpKindTwo
		}
		// Parametric rotations only combine when the angle operand
		// matches exactly (same literal bits, or same parameter name):
		// a group must stay a single configured operation.
		key := g.Name + "\x00" + g.Param + "\x00" + strconv.FormatFloat(g.Angle, 'b', -1, 64)
		if !somq {
			key = fmt.Sprintf("%s#%d", g.Name, len(groups))
		}
		idx, ok := index[key]
		if !ok {
			idx = len(groups)
			index[key] = idx
			groups = append(groups, ir.Group{Name: g.Name, Two: two, Angle: g.Angle, Param: g.Param})
		}
		gr := &groups[idx]
		gr.Gates++
		if topo == nil {
			continue
		}
		if two {
			id, allowed := topo.EdgeID(g.Qubits[0], g.Qubits[1])
			if !allowed {
				return gateErr(g, "compiler: (%d,%d) is not an allowed pair on chip %q (mapping pass required)",
					g.Qubits[0], g.Qubits[1], topo.Name)
			}
			gr.TMask |= 1 << uint(id)
		} else {
			if topo.Feedline(g.Qubits[0]) < 0 {
				return gateErr(g, "compiler: qubit %d is not available on chip %q", g.Qubits[0], topo.Name)
			}
			gr.SMask |= 1 << uint(g.Qubits[0])
		}
	}
	// Deterministic operation order within the point: single-qubit
	// groups first, then by name.
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].Two != groups[j].Two {
			return !groups[i].Two
		}
		if groups[i].Name != groups[j].Name {
			return groups[i].Name < groups[j].Name
		}
		if groups[i].Param != groups[j].Param {
			return groups[i].Param < groups[j].Param
		}
		return groups[i].Angle < groups[j].Angle
	})
	// Simultaneous pairs must not share a qubit (the chip plays one
	// flux dance per point).
	if topo != nil {
		for _, gr := range groups {
			if gr.Two {
				if err := topo.ValidatePairMask(gr.TMask); err != nil {
					return fmt.Errorf("compiler: %v", err)
				}
			}
		}
	}
	pt.Groups = groups
	return nil
}

// PassAllocRegs is the mask-register allocation pass: it assigns each
// group's qubit (or pair) mask to an S (or T) target register with LRU
// eviction, splitting two-qubit groups that exceed the instantiation's
// pairs-per-SMIT capacity, and records the SMIS/SMIT update sequence
// each point needs before its bundles issue.
func PassAllocRegs(inst isa.Instantiation) Pass {
	return Pass{Name: "regalloc", Run: func(p *ir.Program) error {
		sAlloc := newRegAlloc(inst.NumSReg)
		tAlloc := newRegAlloc(inst.NumTReg)
		maxPairs := inst.MaxPairsPerOp()
		for i := range p.Points {
			pt := &p.Points[i]
			pt.Prelude = nil
			pt.Ops = make([]isa.QOp, 0, len(pt.Groups))
			for _, gr := range pt.Groups {
				if gr.Two {
					// The instantiation's SMIT encoding caps how many
					// pairs one target register can address (Section
					// 3.3.2); split wide groups.
					for _, chunk := range splitMask(gr.TMask, maxPairs) {
						reg, fresh := tAlloc.get(chunk)
						if fresh {
							pt.Prelude = append(pt.Prelude, isa.Instr{Op: isa.OpSMIT, Addr: uint8(reg), Mask: chunk})
						}
						pt.Ops = append(pt.Ops, isa.QOp{Name: gr.Name, Target: uint8(reg), Angle: gr.Angle, Param: gr.Param})
					}
				} else {
					reg, fresh := sAlloc.get(gr.SMask)
					if fresh {
						pt.Prelude = append(pt.Prelude, isa.Instr{Op: isa.OpSMIS, Addr: uint8(reg), Mask: gr.SMask})
					}
					pt.Ops = append(pt.Ops, isa.QOp{Name: gr.Name, Target: uint8(reg), Angle: gr.Angle, Param: gr.Param})
				}
			}
		}
		return nil
	}}
}

// regAlloc allocates target registers for mask values with LRU eviction.
type regAlloc struct {
	byMask  map[uint64]int
	lastUse map[int]int64
	size    int
	clock   int64
}

func newRegAlloc(size int) *regAlloc {
	return &regAlloc{byMask: map[uint64]int{}, lastUse: map[int]int64{}, size: size}
}

// get returns the register holding mask, allocating (fresh=true) when the
// mask is not resident.
func (a *regAlloc) get(mask uint64) (reg int, fresh bool) {
	a.clock++
	if r, ok := a.byMask[mask]; ok {
		a.lastUse[r] = a.clock
		return r, false
	}
	if len(a.byMask) < a.size {
		r := len(a.byMask)
		a.byMask[mask] = r
		a.lastUse[r] = a.clock
		return r, true
	}
	// Evict the least recently used register.
	victim, oldest := -1, int64(1<<62)
	for r, t := range a.lastUse {
		if t < oldest {
			victim, oldest = r, t
		}
	}
	for m, r := range a.byMask {
		if r == victim {
			delete(a.byMask, m)
			break
		}
	}
	a.byMask[mask] = victim
	a.lastUse[victim] = a.clock
	return victim, true
}

// splitMask chunks a bit mask into masks of at most maxBits set bits.
func splitMask(mask uint64, maxBits int) []uint64 {
	if maxBits <= 0 {
		maxBits = 1
	}
	var out []uint64
	var cur uint64
	n := 0
	for _, b := range isa.MaskQubits(mask) {
		cur |= 1 << uint(b)
		n++
		if n == maxBits {
			out = append(out, cur)
			cur, n = 0, 0
		}
	}
	if cur != 0 {
		out = append(out, cur)
	}
	return out
}
