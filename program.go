package eqasm

import (
	"fmt"
	"strings"
	"sync"

	"eqasm/internal/asm"
	"eqasm/internal/compiler"
	"eqasm/internal/cqasm"
	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/openqasm"
	"eqasm/internal/plan"
)

// Program is an assembled eQASM program bound to the instruction-set
// context (chip topology, operation configuration, binary
// instantiation) it was produced under, so execution, encoding and
// disassembly stay coherent with assembly — the Section 3.2 contract
// made explicit. Programs are immutable and safe to share across
// backends and goroutines.
//
// A Program lazily carries its decode-once execution plan: the first
// execution (or an explicit Prepare call) lowers the instruction
// sequence against the bound context — operands resolved, microcode
// looked up, target masks expanded, gates kernel-classified — and
// every subsequent shot on every pooled machine replays the shared
// read-only plan.
type Program struct {
	prog   *isa.Program
	st     stack
	source string

	planMu   sync.Mutex
	planned  *plan.Executable
	planErr  error
	planDone bool
}

// Assemble parses and validates eQASM assembly source against the
// configured topology and operation set, returning the bound program.
// Malformed source fails with an *AssembleError carrying per-diagnostic
// line and column positions.
func Assemble(src string, opts ...Option) (*Program, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := cfg.resolveStack()
	if err != nil {
		return nil, err
	}
	return assembleWith(st, src)
}

func assembleWith(st stack, src string) (*Program, error) {
	a := asm.New(st.opCfg, st.topo)
	a.Inst = st.inst
	prog, err := a.Assemble(src)
	if err != nil {
		return nil, wrapAssembleErr(err)
	}
	return &Program{prog: prog, st: st, source: src}, nil
}

// LoadBinary decodes a binary instruction image (as produced by Bytes
// or by cmd/eqasm-asm) into a runnable program.
func LoadBinary(bin []byte, opts ...Option) (*Program, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := cfg.resolveStack()
	if err != nil {
		return nil, err
	}
	words, err := isa.BytesToWords(bin)
	if err != nil {
		return nil, err
	}
	prog, err := st.inst.DecodeProgram(words, st.opCfg)
	if err != nil {
		return nil, err
	}
	return &Program{prog: prog, st: st}, nil
}

// Disassemble decodes a binary instruction image and renders an
// assembly listing that Assemble accepts back (round-trip property).
func Disassemble(bin []byte, opts ...Option) (string, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return "", err
	}
	st, err := cfg.resolveStack()
	if err != nil {
		return "", err
	}
	words, err := isa.BytesToWords(bin)
	if err != nil {
		return "", err
	}
	return disassembleWith(st, words)
}

func disassembleWith(st stack, words []uint32) (string, error) {
	d := asm.NewDisassembler(st.opCfg, st.topo)
	d.Inst = st.inst
	return d.Disassemble(words)
}

// WireSource renders the program as the eQASM text the service wire
// carries: the original source when the program has one, otherwise the
// round-trip-stable disassembly. Parametric programs have no 32-bit
// encoding to disassemble from, so they render straight from the
// instruction list instead, %name angle operands included; assembling
// the text under the same options yields the same program.
func (p *Program) WireSource() (string, error) {
	if p.source != "" {
		return p.source, nil
	}
	if s, err := p.Disassemble(); err == nil {
		return s, nil
	}
	d := asm.NewDisassembler(p.st.opCfg, p.st.topo)
	d.Inst = p.st.inst
	return d.RenderProgram(p.prog)
}

// executable returns the program's execution plan, lowering it on
// first use; cached reports whether the plan had already been built.
func (p *Program) executable() (ex *plan.Executable, cached bool, err error) {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if p.planDone {
		return p.planned, true, p.planErr
	}
	p.planned, p.planErr = plan.Build(p.prog, p.st.topo, p.st.opCfg)
	p.planDone = true
	return p.planned, false, p.planErr
}

// Prepare lowers the program into its decode-once execution plan ahead
// of the first run (backends otherwise build it lazily), returning
// whether the plan was already cached. Serving layers call it at
// submit time so the cost of planning is paid once per cached program,
// never on the shot hot path.
func (p *Program) Prepare() (cached bool, err error) {
	_, cached, err = p.executable()
	return cached, err
}

// Params returns the sorted distinct symbolic parameter names of the
// program (nil when the program is not parametric). Lowers the
// execution plan on first use.
func (p *Program) Params() ([]string, error) {
	ex, _, err := p.executable()
	if err != nil {
		return nil, err
	}
	return ex.ParamNames(), nil
}

// Source returns the assembly text the program was assembled from
// (empty for compiled circuits and decoded binaries).
func (p *Program) Source() string { return p.source }

// Chip names the topology the program is bound to ("twoqubit",
// "surface7", or a hardware configuration's name). Backends use it to
// refuse programs bound to a different chip than they run.
func (p *Program) Chip() string { return p.st.topo.Name }

// Text renders the resolved assembly listing.
func (p *Program) Text() string { return p.prog.String() }

// NumInstructions returns the instruction count after bundle splitting
// and label resolution.
func (p *Program) NumInstructions() int { return len(p.prog.Instrs) }

// Words encodes the program to 32-bit instruction words under its
// instantiation.
func (p *Program) Words() ([]uint32, error) {
	return p.st.inst.EncodeProgram(p.prog, p.st.opCfg)
}

// Bytes encodes the program to the little-endian binary image the host
// CPU uploads to instruction memory.
func (p *Program) Bytes() ([]byte, error) {
	words, err := p.Words()
	if err != nil {
		return nil, err
	}
	return isa.WordsToBytes(words), nil
}

// Disassemble encodes the program and renders it back as assembly text
// under the program's own context.
func (p *Program) Disassemble() (string, error) {
	words, err := p.Words()
	if err != nil {
		return "", err
	}
	return disassembleWith(p.st, words)
}

// Gate is one circuit-level operation on explicit qubits.
type Gate struct {
	// Name is the operation mnemonic, resolved against the operation
	// configuration when the circuit is compiled.
	Name string
	// Qubits lists the operands: one for single-qubit gates and
	// measurements, two (source, target) for two-qubit gates.
	Qubits []int
	// DurationCycles of the pulse; 0 means "look up by kind" during
	// scheduling.
	DurationCycles int
	// Measure marks a measurement operation.
	Measure bool
	// Angle is the rotation angle in radians of a parametric rotation
	// gate (RX/RY/RZ) with a literal angle. Ignored when Param is set;
	// must be zero for non-rotation gates.
	Angle float64
	// Param names a symbolic rotation parameter (cQASM "%name" without
	// the sigil) whose value is supplied per run through
	// RunOptions.Params / RunRequest.Params; "" for literal-angle and
	// non-rotation gates.
	Param string
}

// Circuit is a hardware-independent gate list over NumQubits qubits.
// Program order defines data dependencies (gates sharing a qubit must
// not reorder).
type Circuit struct {
	Name      string
	NumQubits int
	Gates     []Gate
}

// lower converts the circuit into the compiler's pipeline IR.
func (c *Circuit) lower() *ir.Program {
	p := &ir.Program{Name: c.Name, NumQubits: c.NumQubits, Gates: make([]ir.Gate, len(c.Gates))}
	for i, g := range c.Gates {
		p.Gates[i] = ir.Gate{
			Name:           g.Name,
			Qubits:         g.Qubits,
			DurationCycles: g.DurationCycles,
			Measure:        g.Measure,
			Angle:          g.Angle,
			Param:          g.Param,
		}
	}
	return p
}

// circuitFromIR lifts a parsed program's circuit into the public type.
func circuitFromIR(p *ir.Program) *Circuit {
	out := &Circuit{Name: p.Name, NumQubits: p.NumQubits}
	for _, g := range p.Gates {
		out.Gates = append(out.Gates, Gate{
			Name:           g.Name,
			Qubits:         g.Qubits,
			DurationCycles: g.DurationCycles,
			Measure:        g.Measure,
			Angle:          g.Angle,
			Param:          g.Param,
		})
	}
	return out
}

// Compile lowers a hardware-independent circuit to an executable eQASM
// program for the configured chip through the compiler's pass pipeline:
// validation, optional topology-aware qubit mapping (WithInitialLayout),
// ASAP or ALAP scheduling (WithSchedule), SOMQ/bundle packing
// (WithSOMQ), mask-register allocation, timing lowering (WithTimingSpec,
// WithWPI, WithInitWaitCycles) and emission (WithVLIWWidth). The
// resulting program carries the same context as Assemble would bind, so
// it runs on any Backend for that chip.
func Compile(c *Circuit, opts ...Option) (*Program, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := cfg.resolveStack()
	if err != nil {
		return nil, err
	}
	return compileIR(cfg, st, c.lower())
}

// ParseCircuit parses cQASM source (the v1.0 subset: qubit
// declarations, single- and two-qubit gates, measurements and parallel
// { } bundles; see the package documentation for the grammar) into a
// hardware-independent Circuit. Malformed source fails with an
// *AssembleError carrying per-diagnostic line and column positions,
// exactly like Assemble.
func ParseCircuit(src string) (*Circuit, error) {
	p, err := cqasm.Parse(src)
	if err != nil {
		return nil, wrapParseErr(err)
	}
	return circuitFromIR(p), nil
}

// CompileCircuit parses cQASM source and compiles it down to an
// executable eQASM program for the configured chip — the paper's full
// Fig. 1 flow (common QASM in, executable QASM out) in one call. It
// accepts the same functional options as Compile; gate-level compile
// faults point back at the cQASM source line.
func CompileCircuit(src string, opts ...Option) (*Program, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := cfg.resolveStack()
	if err != nil {
		return nil, err
	}
	p, err := cqasm.Parse(src)
	if err != nil {
		return nil, wrapParseErr(err)
	}
	return compileIR(cfg, st, p)
}

// ParseOpenQASM parses OpenQASM 2.0 source (the subset documented in
// the package comment of internal/openqasm: the OPENQASM 2.0 header,
// qreg/creg declarations, the primitive U/CX gates plus the
// standard-header sugar, measure, barrier, and %name rotation
// parameters) into the same hardware-independent Circuit the cQASM
// front end produces: the same circuit written in either syntax
// compiles to byte-identical eQASM. Malformed source fails with an
// *AssembleError carrying per-diagnostic line and column positions,
// exactly like ParseCircuit and Assemble.
func ParseOpenQASM(src string) (*Circuit, error) {
	p, err := openqasm.Parse(src)
	if err != nil {
		return nil, wrapParseErr(err)
	}
	return circuitFromIR(p), nil
}

// CompileOpenQASM parses OpenQASM 2.0 source and compiles it down to
// an executable eQASM program for the configured chip — the same one
// call as CompileCircuit, fed by the OpenQASM front end. It accepts
// the same functional options; gate-level compile faults point back at
// the OpenQASM source line.
func CompileOpenQASM(src string, opts ...Option) (*Program, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := cfg.resolveStack()
	if err != nil {
		return nil, err
	}
	p, err := openqasm.Parse(src)
	if err != nil {
		return nil, wrapParseErr(err)
	}
	return compileIR(cfg, st, p)
}

// Source-format names, as used on the service wire ("format" field)
// and returned by DetectFormat.
const (
	// FormatEQASM is eQASM assembly.
	FormatEQASM = "eqasm"
	// FormatCQASM is the cQASM 1.0 circuit subset (ParseCircuit).
	FormatCQASM = "cqasm"
	// FormatOpenQASM is the OpenQASM 2.0 circuit subset (ParseOpenQASM).
	FormatOpenQASM = "openqasm"
)

// DetectFormat sniffs the language of program source text from its
// first significant line: FormatOpenQASM for an "OPENQASM" header,
// FormatCQASM for a cQASM "version"/"qubits" header, FormatEQASM
// otherwise. It reads only the leading tokens — a detection aid for
// tools accepting mixed inputs (cmd/eqasm-run picks the front end this
// way when the file extension is ambiguous), not a validator.
func DetectFormat(src string) string {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		word := line
		if k := strings.IndexAny(word, " \t"); k >= 0 {
			word = word[:k]
		}
		switch word {
		case "OPENQASM":
			return FormatOpenQASM
		case "version", "qubits":
			return FormatCQASM
		}
		return FormatEQASM
	}
	return FormatEQASM
}

// compileIR drives the circuit IR through the compiler's pass pipeline
// under the resolved options and binds the emitted code to the stack.
func compileIR(cfg *config, st stack, p *ir.Program) (*Program, error) {
	if p.NumQubits > st.topo.NumQubits {
		return nil, fmt.Errorf("eqasm: circuit needs %d qubits, chip %q has %d",
			p.NumQubits, st.topo.Name, st.topo.NumQubits)
	}
	if st.topo.NumQubits > 64 {
		return nil, fmt.Errorf("eqasm: the compiler's register allocator targets chips up to 64 qubits (%q has %d); assemble wide-register programs directly",
			st.topo.Name, st.topo.NumQubits)
	}
	arch := compiler.DefaultArch(st.inst)
	arch.SOMQ = cfg.somq
	if cfg.specSet {
		arch.Spec = cfg.spec
	}
	if cfg.wpi != 0 {
		arch.WPI = cfg.wpi
	}
	if cfg.vliwWidth != 0 {
		arch.VLIWWidth = cfg.vliwWidth
	}
	pl, err := compiler.NewPipeline(compiler.PipelineConfig{
		Config:         st.opCfg,
		Topo:           st.topo,
		Inst:           st.inst,
		Map:            cfg.layout != nil,
		Layout:         cfg.layout,
		ALAP:           cfg.schedule == "alap",
		Arch:           arch,
		InitWaitCycles: cfg.initWait,
		AppendStop:     true,
	})
	if err != nil {
		return nil, err
	}
	if err := pl.Run(p); err != nil {
		return nil, err
	}
	return &Program{prog: p.Code, st: st}, nil
}

// OperationInfo describes one configured quantum operation: the
// compile-time operation configuration of Section 3.2 as seen through
// the public API.
type OperationInfo struct {
	// Name is the assembly mnemonic.
	Name string
	// Opcode is the q-opcode assigned in the binary instantiation.
	Opcode uint16
	// Kind is "single", "two-qubit" or "measurement".
	Kind string
	// DurationCycles is the pulse duration in quantum cycles.
	DurationCycles int
	// CondFlag is the fast-conditional-execution flag gating the
	// operation ("always" for unconditional operations).
	CondFlag string
}

// Operations lists the configured quantum operation set for the
// selected context, in name order.
func Operations(opts ...Option) ([]OperationInfo, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	st, err := cfg.resolveStack()
	if err != nil {
		return nil, err
	}
	var out []OperationInfo
	for _, name := range st.opCfg.Names() {
		def, _ := st.opCfg.ByName(name)
		out = append(out, OperationInfo{
			Name:           def.Name,
			Opcode:         def.Opcode,
			Kind:           def.Kind.String(),
			DurationCycles: def.DurationCycles,
			CondFlag:       def.CondSel.String(),
		})
	}
	return out, nil
}
