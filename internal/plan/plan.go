// Package plan is the decode-once lowering layer of the execution
// stack: it turns an assembled isa.Program plus its instruction-set
// context (operation configuration, chip topology) into an immutable
// Executable whose instructions carry pre-resolved operands,
// pre-looked-up Q-control-store microinstructions, pre-expanded S/T
// target-register masks, pre-classified device-operation kinds and
// kernels, and precomputed per-operation durations.
//
// The eQASM paper's central architectural argument is that translation
// cost is paid ahead of the timing-critical pipeline: the binary is
// decoded, the microcode unit is configured, and target registers
// resolve masks set up in advance, so triggering a quantum operation is
// a table walk, not a decode. Build resolves operation names,
// control-store entries and target masks exactly once, and every pooled
// machine replaying the program shares the read-only result.
//
// Configuration errors that eQASM raises at issue time (an unconfigured
// operation, a mask addressing qubits beyond the chip, a pair mask
// selecting edges that share a qubit) are not build failures: they are
// recorded on the lowered operation or target set and fault the machine
// if and when that instruction actually executes.
package plan

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"weak"

	"eqasm/internal/isa"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// DeviceKind pre-classifies what a bundle operation does to the chip.
type DeviceKind uint8

const (
	// KindGate1 is a single-qubit gate.
	KindGate1 DeviceKind = iota
	// KindGate2 is a two-qubit gate.
	KindGate2
	// KindMeasure starts readout.
	KindMeasure
)

// Pair is one selected allowed pair of a two-qubit target set.
type Pair struct {
	Src, Tgt int
}

// TargetSet is one pre-expanded S/T target-register value: the mask a
// SMIS/SMIT instruction installs, already expanded to the qubit or
// pair list the quantum pipeline iterates, with mask-validity errors
// resolved ahead of time. The zero-mask set is shared (EmptyTargets).
type TargetSet struct {
	// Mask is the raw register value (the architectural S/T register
	// contents): bits 0..63.
	Mask uint64
	// MaskHi extends the register beyond 64 targets for wide
	// instantiations (chain chips): word i holds bits 64(i+1)..64(i+2)-1.
	// Nil for the 32-bit encodable instantiations.
	MaskHi []uint64
	// Qubits is the ascending qubit list of a SMIS mask.
	Qubits []int
	// Pairs is the edge list of a SMIT mask, in edge-ID order.
	Pairs []Pair
	// SingleErr/PairErr carry the issue-time error the machine raises
	// when a bundle reads this register for a single- or two-qubit
	// operation ("" = valid). Deferred rather than raised at
	// build time: a register holding an invalid mask is only a fault
	// when a bundle actually uses it.
	SingleErr string
	PairErr   string
}

// EmptyTargets is the power-on target-register value: mask 0, no
// targets.
var EmptyTargets = &TargetSet{}

// ParamRef marks a bundle operation whose rotation angle is a symbolic
// parameter: the site's unitary is unresolved at build time and comes
// from a Binding's patch table at execution time.
type ParamRef struct {
	// Name is the parameter name (cQASM "%name" without the sigil).
	Name string
	// Axis is the rotation axis of the parametric operation.
	Axis quantum.Axis
	// Slot indexes the plan's patch table: Binding.Spec(Slot) is the
	// bound kernel. Sites sharing (Name, Axis) share one slot.
	Slot int
}

// BundleOp is one pre-resolved quantum operation of a bundle: operation
// definition, control-store microinstructions, device kind, duration
// and kernel classification, all looked up at build time.
type BundleOp struct {
	// Def is the configured operation (nil when ErrMsg is set).
	Def *isa.OpDef
	// Micro are the Q-control-store microinstructions.
	Micro []MicroOp
	// Kind classifies the device operation.
	Kind DeviceKind
	// Target is the S/T register index the operation reads.
	Target uint8
	// DurNs is the precomputed pulse duration in nanoseconds.
	DurNs float64
	// DurCycles is the pulse duration in quantum cycles.
	DurCycles int64
	// Spec1/Spec2 are the kernel classifications of the unitary, with
	// the Clifford conjugation table resolved for Clifford unitaries.
	// For a parametric site with a literal angle, Spec1 is the
	// classified rotation matrix (the OpDef's Unitary1 is advisory
	// only); for a symbolic site Spec1 is zero and Param locates the
	// bound kernel. Spec2 (two-qubit sites only, nil otherwise) is
	// shared by every site of one operation: a plan holds many sites
	// and the spec is several hundred bytes.
	Spec1 quantum.Gate1Spec
	Spec2 *quantum.Gate2Spec
	// Param is non-nil for a symbolic parametric site: the angle is
	// resolved through a Binding's patch table, not baked into the plan.
	Param *ParamRef
	// ErrMsg defers a configuration error (unknown operation name) to
	// the moment the bundle issues.
	ErrMsg string
	// Fused holds the fusion annotations of this site's targets, one
	// entry per target-set slot (qubit for 1q sites, pair for 2q sites),
	// parallel to the TargetSet the fusion pass proved the site reads.
	// Nil when no target of the site participates in a fused run; a nil
	// entry leaves that target on the per-site kernel. Execution uses
	// the annotations only when the live target set still has the
	// assumed width and fusion is enabled on the machine.
	Fused []*FusedKernel
}

// Bundle is a pre-resolved quantum bundle.
type Bundle struct {
	// PI is the pre-interval in cycles, pre-widened.
	PI int64
	// Ops are the bundle's operations in issue order.
	Ops []BundleOp
}

// Instr is one lowered instruction: the scalar operands of the
// assembly-level isa.Instr, compacted, plus pointers to the
// pre-resolved quantum structures.
type Instr struct {
	Op         isa.Opcode
	Rd, Rs, Rt uint8
	Qi, Addr   uint8
	Cond       isa.CondFlag
	Imm        int32
	Mask       uint64
	// MaskHi extends Mask past 64 targets on wide instantiations.
	MaskHi []uint64
	// Targets is the pre-expanded target set a SMIS/SMIT installs.
	Targets *TargetSet
	// Bundle is the pre-resolved quantum bundle of an OpBundle.
	Bundle *Bundle
}

// Executable is an immutable execution plan: build once, execute many.
// It is safe to share read-only across pooled machines and goroutines.
type Executable struct {
	prog   *isa.Program
	topo   *topology.Topology
	opCfg  *isa.OpConfig
	instrs []Instr

	cliffordOnly bool
	// cliffordStatic is the Clifford-ness of the non-symbolic sites
	// alone; a Binding combines it with the bound angles per point.
	cliffordStatic bool
	// shotInvariant: no FMR and no conditionally executed operation,
	// so no measurement result can reach the schedule.
	shotInvariant bool
	profile       map[string]int

	// fusedKernels counts the fused runs the fusion pass materialized;
	// fusedProfile is the per-application execution profile under
	// fusion (see GateProfileFused).
	fusedKernels int
	fusedProfile map[string]int

	// slots is the patch table layout: one entry per distinct
	// (parameter name, axis) pair; paramNames the sorted unique names.
	slots      []paramSlot
	paramNames []string
}

// paramSlot is one patch-table entry: all sites naming this parameter
// on this axis share the bound 2x2 matrix built for the slot.
type paramSlot struct {
	name string
	axis quantum.Axis
}

// Program returns the source program the plan lowers (error reporting
// and listings still render assembly-level instructions).
func (e *Executable) Program() *isa.Program { return e.prog }

// Topology returns the chip topology the plan was lowered for.
func (e *Executable) Topology() *topology.Topology { return e.topo }

// OpConfig returns the operation configuration the plan was lowered
// under.
func (e *Executable) OpConfig() *isa.OpConfig { return e.opCfg }

// Instrs returns the lowered instruction sequence (read-only).
func (e *Executable) Instrs() []Instr { return e.instrs }

// Len returns the instruction count.
func (e *Executable) Len() int { return len(e.instrs) }

// CliffordOnly reports whether every gate site of the plan carries a
// Clifford-group unitary (measurements included; they are stabilizer
// operations). Clifford-only noiseless plans are eligible for the
// stabilizer-tableau backend. Deferred-error sites (unconfigured
// operations, missing microcode) count as non-Clifford so the selection
// stays conservative.
func (e *Executable) CliffordOnly() bool { return e.cliffordOnly }

// ShotInvariant reports whether every shot of the plan runs the same
// schedule: the program has no FMR (comprehensive feedback reads
// measurement results only through it) and no operation whose
// micro-operations select an execution flag other than FlagAlways (fast
// conditional execution). Measured bits then cannot change what runs or
// when; only the chip's random draws differ from shot to shot, so the
// machine may replay a recorded shot's chip calls instead of
// re-simulating the timeline.
func (e *Executable) ShotInvariant() bool { return e.shotInvariant }

// Parametric reports whether the plan has symbolic rotation sites that
// need a Binding before it can execute. Parametric plans always report
// CliffordOnly false; classify per bound point with Binding.CliffordOnly.
func (e *Executable) Parametric() bool { return len(e.slots) > 0 }

// ParamNames returns the sorted distinct parameter names the plan
// binds; nil for non-parametric plans.
func (e *Executable) ParamNames() []string {
	if len(e.paramNames) == 0 {
		return nil
	}
	return append([]string(nil), e.paramNames...)
}

// Binding is a bound view of a parametric plan: the shared immutable
// Executable plus a patch table of 2x2 kernels, one per parameter slot.
// Binding a parameter point is a handful of matrix builds — no
// re-assembly, no re-lowering — so a sweep reuses one plan for every
// point. A Binding is immutable and safe to share across machines.
type Binding struct {
	ex    *Executable
	specs []quantum.Gate1Spec
	cliff bool
}

// Bind resolves every parameter slot against params and returns the
// bound view. Every plan parameter must be given exactly once: unknown
// names, missing names and non-finite values are errors.
func (e *Executable) Bind(params map[string]float64) (*Binding, error) {
	for name := range params {
		if !e.hasParam(name) {
			return nil, fmt.Errorf("plan: no parameter %q in the program (parameters: %s)",
				name, nameList(e.paramNames))
		}
	}
	for _, name := range e.paramNames {
		v, ok := params[name]
		if !ok {
			return nil, fmt.Errorf("plan: missing value for parameter %q", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("plan: parameter %q is not a finite angle (%v)", name, v)
		}
	}
	b := &Binding{ex: e, cliff: e.cliffordStatic}
	if len(e.slots) > 0 {
		b.specs = make([]quantum.Gate1Spec, len(e.slots))
		for i, s := range e.slots {
			u := quantum.Rotation(s.axis, params[s.name])
			b.specs[i] = classify1(u)
			if b.specs[i].Cliff == nil {
				b.cliff = false
			}
		}
	}
	return b, nil
}

func (e *Executable) hasParam(name string) bool {
	for _, n := range e.paramNames {
		if n == name {
			return true
		}
	}
	return false
}

func nameList(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// Plan returns the shared executable the binding patches.
func (b *Binding) Plan() *Executable { return b.ex }

// Spec returns the bound kernel of one patch-table slot (read-only).
func (b *Binding) Spec(slot int) *quantum.Gate1Spec { return &b.specs[slot] }

// CliffordOnly reports whether the plan under this specific binding is
// Clifford throughout: the static sites are Clifford and every bound
// angle lands on a Clifford rotation.
func (b *Binding) CliffordOnly() bool { return b.cliff }

// GateProfile returns the plan's static instruction-site counts per
// kernel kind ("gate1.hadamard", "gate2.cphase", "measure", ...), the
// aggregate that ClassifyGate1/2 computes and execution otherwise
// discards. The returned map is a copy; nil when the plan has no gate
// sites.
func (e *Executable) GateProfile() map[string]int {
	if len(e.profile) == 0 {
		return nil
	}
	out := make(map[string]int, len(e.profile))
	for k, v := range e.profile {
		out[k] = v
	}
	return out
}

// HasFusion reports whether the fusion pass materialized at least one
// fused run in this plan.
func (e *Executable) HasFusion() bool { return e.fusedKernels > 0 }

// GateProfileFused returns the per-application kernel profile of a
// fused execution of the plan: unfused applications under their static
// kinds ("gate1.diag", "gate2.generic", "measure", ...), fused anchors
// under the re-classified product kind ("fused.gate1.generic",
// "fused.gate2.cphase", ...), plus the fusion counters
// ProfileFusionElided / ProfileFusionTotal / ProfileFusionFused. Sites
// whose target registers are not statically known count once under
// their static kind. The returned map is a copy; nil when the plan has
// no gate sites.
func (e *Executable) GateProfileFused() map[string]int {
	if len(e.fusedProfile) == 0 {
		return nil
	}
	out := make(map[string]int, len(e.fusedProfile))
	for k, v := range e.fusedProfile {
		out[k] = v
	}
	return out
}

// gate1KindName names a kernel classification for GateProfile keys.
func gate1KindName(k quantum.Gate1Kind) string {
	switch k {
	case quantum.Gate1Diag:
		return "gate1.diag"
	case quantum.Gate1AntiDiag:
		return "gate1.antidiag"
	case quantum.Gate1Hadamard:
		return "gate1.hadamard"
	}
	return "gate1.generic"
}

func gate2KindName(k quantum.Gate2Kind) string {
	switch k {
	case quantum.Gate2CPhase:
		return "gate2.cphase"
	case quantum.Gate2Diag:
		return "gate2.diag"
	case quantum.Gate2Perm:
		return "gate2.perm"
	}
	return "gate2.generic"
}

// controlStores interns one Q control store per live operation
// configuration, so every plan lowered under the same configuration —
// and every machine running under it — shares one pre-built
// microcode table. Keys are weak: when a configuration becomes
// unreachable its entry is removed, so callers that build throwaway
// configurations (isa.DefaultConfig allocates one per call) do not grow
// the cache without bound.
var (
	controlStoresMu sync.Mutex
	controlStores   = map[weak.Pointer[isa.OpConfig]]*ControlStore{}
)

// InternControlStore returns the shared control store of cfg, building
// it on first use.
func InternControlStore(cfg *isa.OpConfig) *ControlStore {
	key := weak.Make(cfg)
	controlStoresMu.Lock()
	defer controlStoresMu.Unlock()
	if cs, ok := controlStores[key]; ok {
		return cs
	}
	cs := BuildControlStore(cfg)
	controlStores[key] = cs
	runtime.AddCleanup(cfg, func(k weak.Pointer[isa.OpConfig]) {
		controlStoresMu.Lock()
		delete(controlStores, k)
		controlStoresMu.Unlock()
	}, key)
	return cs
}

// Build lowers prog into an Executable for the given chip topology and
// operation configuration. It fails only on missing inputs; program
// content that faults at run time (unknown operations, invalid masks)
// lowers to deferred errors raised when the instruction executes.
func Build(prog *isa.Program, topo *topology.Topology, opCfg *isa.OpConfig) (*Executable, error) {
	if prog == nil {
		return nil, fmt.Errorf("plan: nil program")
	}
	if topo == nil {
		return nil, fmt.Errorf("plan: nil topology")
	}
	if opCfg == nil {
		return nil, fmt.Errorf("plan: nil operation configuration")
	}
	b := &builder{
		topo:    topo,
		opCfg:   opCfg,
		cstore:  InternControlStore(opCfg),
		targets: map[targetKey]*TargetSet{},
		spec1:   map[*isa.OpDef]quantum.Gate1Spec{},
		spec2:   map[*isa.OpDef]*quantum.Gate2Spec{},
		slotIdx: map[paramSlot]int{},
		cliff:   true,
		profile: map[string]int{},
	}
	ex := &Executable{
		prog:   prog,
		topo:   topo,
		opCfg:  opCfg,
		instrs: make([]Instr, len(prog.Instrs)),
	}
	for i, ins := range prog.Instrs {
		ex.instrs[i] = b.lower(ins)
	}
	ex.cliffordStatic = b.cliff
	ex.cliffordOnly = b.cliff && len(b.slots) == 0
	ex.shotInvariant = shotInvariant(ex.instrs)
	ex.profile = b.profile
	ex.slots = b.slots
	if len(b.slots) > 0 {
		seen := map[string]bool{}
		for _, s := range b.slots {
			if !seen[s.name] {
				seen[s.name] = true
				ex.paramNames = append(ex.paramNames, s.name)
			}
		}
		sort.Strings(ex.paramNames)
	}
	ex.fuse()
	return ex, nil
}

// shotInvariant implements Executable.ShotInvariant over the lowered
// instructions.
func shotInvariant(instrs []Instr) bool {
	for i := range instrs {
		switch ins := &instrs[i]; ins.Op {
		case isa.OpFMR:
			return false
		case isa.OpBundle:
			for _, op := range ins.Bundle.Ops {
				for _, mo := range op.Micro {
					if mo.CondSel != isa.FlagAlways {
						return false
					}
				}
			}
		}
	}
	return true
}

type targetKey struct {
	mask uint64
	pair bool
}

type builder struct {
	topo   *topology.Topology
	opCfg  *isa.OpConfig
	cstore *ControlStore
	// targets dedupes expanded masks: programs re-install the same
	// few masks from many sites (and loops re-execute one site).
	targets map[targetKey]*TargetSet
	// spec1/spec2 memoize the kernel spec of each non-parametric
	// operation, so its sites share one classification and Clifford
	// table (and, for two-qubit sites, one spec allocation).
	spec1 map[*isa.OpDef]quantum.Gate1Spec
	spec2 map[*isa.OpDef]*quantum.Gate2Spec
	// slots/slotIdx accumulate the patch-table layout for symbolic
	// parametric sites.
	slots   []paramSlot
	slotIdx map[paramSlot]int
	// cliff accumulates the CliffordOnly stamp of non-symbolic sites;
	// profile the per-kernel gate-site counts.
	cliff   bool
	profile map[string]int
}

func (b *builder) lower(ins isa.Instr) Instr {
	out := Instr{
		Op:   ins.Op,
		Rd:   ins.Rd,
		Rs:   ins.Rs,
		Rt:   ins.Rt,
		Qi:   ins.Qi,
		Addr: ins.Addr,
		Cond: ins.Cond,
		Imm:  ins.Imm,
		Mask: ins.Mask,
	}
	out.MaskHi = ins.MaskHi
	switch ins.Op {
	case isa.OpSMIS:
		out.Targets = b.expand(ins.Mask, ins.MaskHi, false)
	case isa.OpSMIT:
		out.Targets = b.expand(ins.Mask, ins.MaskHi, true)
	case isa.OpBundle:
		out.Bundle = b.lowerBundle(ins)
	}
	return out
}

// expand pre-resolves one mask value into its target set, reusing
// previously expanded identical masks. Wide masks skip the dedup map
// (its key is the low word) and expand per site; they are rare and
// programs do not re-install identical wide values from many sites.
func (b *builder) expand(mask uint64, maskHi []uint64, pair bool) *TargetSet {
	if mask == 0 && !anyBits(maskHi) {
		return EmptyTargets
	}
	if anyBits(maskHi) {
		return ExpandTargetsWide(mask, maskHi, b.topo)
	}
	key := targetKey{mask, pair}
	if ts, ok := b.targets[key]; ok {
		return ts
	}
	ts := ExpandTargets(mask, b.topo)
	b.targets[key] = ts
	return ts
}

func anyBits(hi []uint64) bool {
	for _, w := range hi {
		if w != 0 {
			return true
		}
	}
	return false
}

// ExpandTargets expands one raw S/T register mask under a chip
// topology, exactly as the plan builder does for SMIS/SMIT sites. The
// microarchitecture uses it when a plan is loaded over live register
// state (registers survive program uploads).
func ExpandTargets(mask uint64, topo *topology.Topology) *TargetSet {
	return ExpandTargetsWide(mask, nil, topo)
}

// ExpandTargetsWide is ExpandTargets for register values wider than 64
// bits (wide-instantiation chips): maskHi word i holds target bits
// 64(i+1)..64(i+2)-1.
func ExpandTargetsWide(mask uint64, maskHi []uint64, topo *topology.Topology) *TargetSet {
	if mask == 0 && !anyBits(maskHi) {
		return EmptyTargets
	}
	ts := &TargetSet{Mask: mask, MaskHi: maskHi}
	expandSingle(ts, topo)
	expandPair(ts, topo)
	return ts
}

// maskBit reads target bit i of a (lo, hi) register value.
func maskBit(lo uint64, hi []uint64, i int) bool {
	if i < 64 {
		return lo>>uint(i)&1 == 1
	}
	w := i/64 - 1
	if w >= len(hi) {
		return false
	}
	return hi[w]>>uint(i&63)&1 == 1
}

// maskHighBits reports whether any bit at index >= n is set.
func maskHighBits(lo uint64, hi []uint64, n int) bool {
	if n < 64 && lo&^(1<<uint(n)-1) != 0 {
		return true
	}
	for w, word := range hi {
		if word == 0 {
			continue
		}
		base := 64 * (w + 1)
		switch {
		case base >= n:
			return true
		case base+64 <= n:
			// whole word in range
		default:
			if word&^(1<<uint(n-base)-1) != 0 {
				return true
			}
		}
	}
	return false
}

// expandSingle resolves the mask as a single-qubit (S register) target
// list, recording the issue-time error for out-of-range masks.
func expandSingle(ts *TargetSet, topo *topology.Topology) {
	n := topo.NumQubits
	if maskHighBits(ts.Mask, ts.MaskHi, n) {
		ts.SingleErr = fmt.Sprintf("target mask %#x addresses qubits beyond the %d-qubit chip",
			ts.Mask, n)
		return
	}
	for q := 0; q < n; q++ {
		if maskBit(ts.Mask, ts.MaskHi, q) {
			ts.Qubits = append(ts.Qubits, q)
		}
	}
}

// expandPair resolves the mask as a two-qubit (T register) edge list,
// recording the issue-time errors for out-of-range masks and for pair
// selections sharing a qubit. Range is checked first, then qubit
// sharing.
func expandPair(ts *TargetSet, topo *topology.Topology) {
	edges := topo.Edges
	if maskHighBits(ts.Mask, ts.MaskHi, len(edges)) {
		ts.PairErr = fmt.Sprintf("pair mask %#x addresses edges beyond the chip's %d allowed pairs",
			ts.Mask, len(edges))
		return
	}
	used := make(map[int]bool, 8)
	for id, e := range edges {
		if !maskBit(ts.Mask, ts.MaskHi, id) {
			continue
		}
		for _, q := range [2]int{e.Src, e.Tgt} {
			if used[q] {
				ts.PairErr = fmt.Sprintf("pair mask %#x selects two edges sharing qubit %d", ts.Mask, q)
				return
			}
			used[q] = true
		}
		ts.Pairs = append(ts.Pairs, Pair{Src: e.Src, Tgt: e.Tgt})
	}
}

// lowerBundle resolves every operation of a bundle against the
// operation configuration and control store once.
func (b *builder) lowerBundle(ins isa.Instr) *Bundle {
	bu := &Bundle{PI: int64(ins.PI)}
	if len(ins.QOps) == 0 {
		return bu
	}
	bu.Ops = make([]BundleOp, 0, len(ins.QOps))
	for _, q := range ins.QOps {
		bu.Ops = append(bu.Ops, b.lowerOp(q))
	}
	return bu
}

func (b *builder) lowerOp(q isa.QOp) BundleOp {
	def, ok := b.opCfg.ByName(q.Name)
	if !ok {
		b.cliff = false
		return BundleOp{
			Target: q.Target,
			ErrMsg: fmt.Sprintf("operation %q is not configured", q.Name),
		}
	}
	micro, ok := b.cstore.Lookup(def.Opcode)
	if !ok {
		b.cliff = false
		return BundleOp{
			Target: q.Target,
			ErrMsg: fmt.Sprintf("q-opcode %d (%s) missing from the Q control store", def.Opcode, q.Name),
		}
	}
	op := BundleOp{
		Def:       def,
		Micro:     micro,
		Target:    q.Target,
		DurNs:     b.opCfg.DurationNs(def),
		DurCycles: int64(def.DurationCycles),
	}
	if !def.Parametric && (q.Angle != 0 || q.Param != "") {
		b.cliff = false
		return BundleOp{
			Target: q.Target,
			ErrMsg: fmt.Sprintf("operation %q takes no angle operand", q.Name),
		}
	}
	switch def.Kind {
	case isa.OpKindTwo:
		op.Kind = KindGate2
		sp, ok := b.spec2[def]
		if !ok {
			c := quantum.ClassifyGate2(def.Unitary2)
			c.Cliff, _ = quantum.CliffordImage2(def.Unitary2)
			sp = &c
			b.spec2[def] = sp
		}
		op.Spec2 = sp
		b.profile[gate2KindName(sp.Kind)]++
		if sp.Cliff == nil {
			b.cliff = false
		}
	case isa.OpKindMeasure:
		op.Kind = KindMeasure
		b.profile["measure"]++
	default:
		op.Kind = KindGate1
		switch {
		case def.Parametric && q.Param != "":
			// Symbolic site: allocate (or reuse) the patch-table slot;
			// the kernel arrives with the Binding.
			key := paramSlot{name: q.Param, axis: def.Axis}
			slot, ok := b.slotIdx[key]
			if !ok {
				slot = len(b.slots)
				b.slotIdx[key] = slot
				b.slots = append(b.slots, key)
			}
			op.Param = &ParamRef{Name: q.Param, Axis: def.Axis, Slot: slot}
			b.profile["gate1.parametric"]++
		case def.Parametric:
			// Literal angle: bake the rotation into the site's kernel
			// (the def's Unitary1 is an advisory placeholder).
			op.Spec1 = classify1(quantum.Rotation(def.Axis, q.Angle))
		default:
			sp, ok := b.spec1[def]
			if !ok {
				sp = classify1(def.Unitary1)
				b.spec1[def] = sp
			}
			op.Spec1 = sp
		}
		if op.Param == nil {
			b.profile[gate1KindName(op.Spec1.Kind)]++
			if op.Spec1.Cliff == nil {
				b.cliff = false
			}
		}
	}
	return op
}

// classify1 is the kernel spec of a single-qubit site: the structural
// classification plus the Clifford table when u is Clifford.
func classify1(u quantum.Matrix2) quantum.Gate1Spec {
	sp := quantum.ClassifyGate1(u)
	sp.Cliff, _ = quantum.CliffordImage1(u)
	return sp
}
