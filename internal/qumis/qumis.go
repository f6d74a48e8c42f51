// Package qumis models the QuMIS quantum microinstruction set of the
// QuMA microarchitecture (Fu et al., MICRO 2017) — the predecessor eQASM
// is evaluated against. QuMIS is the paper's Section 1.2 baseline, with
// the three properties that limit its instruction information density:
//
//  1. an explicit waiting instruction separates any two consecutive
//     timing points;
//  2. every target qubit occupies an operand field, so the instruction
//     width caps the targets of one instruction;
//  3. two parallel but different operations cannot share an instruction.
//
// Config 1 with w = 1 in the Fig. 7 exploration corresponds to this
// instruction set's timing style; this package provides the concrete
// baseline code generator and counts for direct comparison.
package qumis

import (
	"fmt"
	"strings"

	"eqasm/internal/compiler"
	"eqasm/internal/ir"
)

// Kind enumerates QuMIS instruction kinds.
type Kind uint8

const (
	// KindWait advances the timeline by a cycle count.
	KindWait Kind = iota
	// KindPulse triggers one operation's codeword on up to MaxTargets
	// qubits.
	KindPulse
	// KindMeasure starts measurement of up to MaxTargets qubits.
	KindMeasure
)

// MaxTargets is the number of qubit operand fields in a pulse
// instruction (property 2 above).
const MaxTargets = 3

// Instr is one QuMIS instruction.
type Instr struct {
	Kind   Kind
	Cycles int64  // KindWait
	Op     string // KindPulse: codeword mnemonic
	Qubits []int  // KindPulse / KindMeasure targets
}

func (i Instr) String() string {
	switch i.Kind {
	case KindWait:
		return fmt.Sprintf("wait %d", i.Cycles)
	case KindPulse:
		return fmt.Sprintf("pulse %s %s", i.Op, joinQubits(i.Qubits))
	case KindMeasure:
		return fmt.Sprintf("measure %s", joinQubits(i.Qubits))
	}
	return fmt.Sprintf("<kind %d>", i.Kind)
}

func joinQubits(qs []int) string {
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = fmt.Sprintf("q%d", q)
	}
	return strings.Join(parts, ", ")
}

// Program is a QuMIS instruction sequence.
type Program struct {
	Instrs []Instr
}

func (p *Program) String() string {
	var b strings.Builder
	for _, i := range p.Instrs {
		fmt.Fprintf(&b, "%s\n", i)
	}
	return b.String()
}

// Generate compiles a scheduled program to QuMIS: one wait per timing
// point, one pulse instruction per operation name per MaxTargets
// qubits, two-qubit gates as single-pair pulses. The timing points come
// from the compiler's pack pass, run on a copy so s is left unchanged.
func Generate(s *ir.Program) (*Program, error) {
	packed := *s
	if err := compiler.PassPack(nil, nil, false).Run(&packed); err != nil {
		return nil, err
	}
	p := &Program{}
	prev := int64(0)
	for idx, pt := range packed.Points {
		interval := pt.Cycle - prev
		prev = pt.Cycle
		if idx > 0 || interval > 0 {
			p.Instrs = append(p.Instrs, Instr{Kind: KindWait, Cycles: interval})
		}
		// Group same-name single-qubit gates, chunked by operand fields.
		type bucket struct {
			name    string
			measure bool
			qubits  []int
		}
		var order []string
		buckets := map[string]*bucket{}
		for _, gi := range pt.Gates {
			g := s.Gates[gi]
			if g.IsTwoQubit() {
				// Property 3: a two-qubit gate is its own instruction.
				p.Instrs = append(p.Instrs, Instr{Kind: KindPulse, Op: g.Name, Qubits: g.Qubits})
				continue
			}
			b, ok := buckets[g.Name]
			if !ok {
				b = &bucket{name: g.Name, measure: g.Measure}
				buckets[g.Name] = b
				order = append(order, g.Name)
			}
			b.qubits = append(b.qubits, g.Qubits[0])
		}
		for _, name := range order {
			b := buckets[name]
			for start := 0; start < len(b.qubits); start += MaxTargets {
				end := min(start+MaxTargets, len(b.qubits))
				kind := KindPulse
				if b.measure {
					kind = KindMeasure
				}
				ins := Instr{Kind: kind, Op: b.name, Qubits: b.qubits[start:end]}
				if b.measure {
					ins.Op = ""
				}
				p.Instrs = append(p.Instrs, ins)
			}
		}
	}
	return p, nil
}

// Count is the instruction total, the comparison metric against eQASM.
func (p *Program) Count() int64 { return int64(len(p.Instrs)) }

// CompareResult quantifies eQASM's density gain over QuMIS for one
// scheduled program.
type CompareResult struct {
	QuMIS     int64
	EQASM     int64
	Reduction float64 // 1 - eQASM/QuMIS
}

// CompareWithEQASM counts both the QuMIS program and the eQASM program
// under the adopted instantiation (Config 9, w = 2).
func CompareWithEQASM(s *ir.Program) (CompareResult, error) {
	qp, err := Generate(s)
	if err != nil {
		return CompareResult{}, err
	}
	eq, err := compiler.Count(s, compiler.Config9.WithWidth(2))
	if err != nil {
		return CompareResult{}, err
	}
	r := CompareResult{QuMIS: qp.Count(), EQASM: eq.Instructions}
	if r.QuMIS > 0 {
		r.Reduction = 1 - float64(r.EQASM)/float64(r.QuMIS)
	}
	return r, nil
}
