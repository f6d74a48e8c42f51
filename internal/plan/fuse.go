package plan

import (
	"eqasm/internal/isa"
	"eqasm/internal/quantum"
)

// Plan-time gate fusion. The state-vector backend pays one full pass
// over 2^n amplitudes per gate; most circuits spend that budget on runs
// of adjacent single-qubit gates and on single-qubit gates flanking a
// two-qubit gate on the same pair. The fusion pass walks the lowered
// instruction stream once at build time, precomposes such runs into one
// 2×2 (or 4×4) product, re-classifies the product through
// quantum.ClassifyGate1/2 so it still lands on the specialized
// diag/antidiag/perm/cphase kernels, and annotates the participating
// sites: one site per run becomes the anchor carrying the fused kernel,
// every other constituent is elided. Execution keeps the full control
// semantics at elided sites (timing, collision checks, stats, device
// trace) and only skips the backend application, so fused and unfused
// runs are indistinguishable to everything but the amplitude array.
//
// Fusion barriers — where a run must end — are structural:
//
//   - measurement sites (the sampled probabilities must see every
//     preceding gate applied; a measurement flushes all pending runs,
//     and its whole bundle stays unfused),
//   - feedback-dependent operations (a non-FlagAlways execution flag
//     decides go/no-go per shot at dispatch time),
//   - symbolic ParamRef sites (the kernel arrives with the Binding;
//     static runs around a parametric slot still fuse),
//   - control-flow joins (branch targets start a new segment, and a
//     branch or STOP flushes pending runs),
//   - sites whose target register is not statically known at this
//     point of the program, and deferred-error sites.
//
// Timing points (PI/QWAIT) are not plan-level barriers: the machine
// only uses fusion annotations on noiseless runs, where idling between
// gates is a no-op, and it falls back to per-site kernels whenever a
// noise channel (or a custom backend) makes inter-gate timing
// observable.

// FusedSite locates one constituent instruction site of a fused run:
// the lowered instruction index and the operation's slot within its
// bundle — the provenance from a fused kernel back to the original
// program sites.
type FusedSite struct {
	PC int
	Op int
}

// FusedKernel annotates one target (qubit or pair) of a bundle
// operation under fusion. Exactly one constituent of a run carries the
// precomposed kernel (the anchor); the others are elided.
type FusedKernel struct {
	// Skip marks an elided constituent: its unitary is folded into the
	// run's anchor kernel, so execution applies nothing here.
	Skip bool
	// Two selects the 4×4 kernel: the anchor of a pair run (a run that
	// absorbed a two-qubit gate). False for a single-qubit run anchor.
	Two bool
	// Spec1/Spec2 are the re-classified fused products (anchor only;
	// Spec2 is nil on single-qubit anchors).
	Spec1 quantum.Gate1Spec
	Spec2 *quantum.Gate2Spec
	// Sites lists every constituent folded into this kernel, in
	// program order (anchor only).
	Sites []FusedSite
}

// skipKernel is the shared elision marker: elided sites carry no state
// of their own.
var skipKernel = &FusedKernel{Skip: true}

// Fused-profile keys beyond the per-kernel kinds.
const (
	// ProfileFusionElided counts gate applications elided into an
	// anchor's kernel.
	ProfileFusionElided = "fusion.elided"
	// ProfileFusionTotal counts every gate application of the plan
	// (fused or not, measurements excluded).
	ProfileFusionTotal = "fusion.sites.total"
	// ProfileFusionFused counts the gate applications participating in
	// a fused run (anchors plus elided constituents); the fused/unfused
	// site ratio is ProfileFusionFused / ProfileFusionTotal.
	ProfileFusionFused = "fusion.sites.fused"
)

// fuseSite is a constituent site while its run is still open.
type fuseSite struct {
	op       *BundleOp
	pc       int
	opIdx    int
	slot     int // index into the site's target list
	nTargets int // the site's target count (sizes op.Fused on first use)
}

// fuseGroup is one open run: a single-qubit product on qubit qa, or —
// once a two-qubit gate joins — a 4×4 product on the pair (qa, qb)
// with qa the higher basis label (the pair's Src).
type fuseGroup struct {
	pair   bool
	qa, qb int
	u2     quantum.Matrix2
	u4     quantum.Matrix4
	sites  []fuseSite
	// anchorIdx indexes the site that will carry the fused kernel: the
	// last site of a single-qubit run, the last two-qubit constituent
	// of a pair run (trailing single-qubit gates fold backwards into
	// it — safe because no barrier separates them from the anchor).
	anchorIdx int
}

// fuser is the single-pass fusion state: open runs per qubit and the
// statically known target-register contents of the current segment.
type fuser struct {
	pending []*fuseGroup
	sKnown  [256]*TargetSet
	tKnown  [256]*TargetSet

	profile map[string]int
	// kernels/elided/total count gate applications: fused kernels
	// emitted, constituents elided into them, and all applications.
	kernels int
	elided  int
	total   int
}

// fuse runs the fusion pass over the lowered instructions, annotating
// bundle operations in place and attaching the fused execution profile
// to the executable. Build calls it exactly once, before the plan is
// published; afterwards the annotations are as immutable as the rest.
func (e *Executable) fuse() {
	f := &fuser{
		pending: make([]*fuseGroup, e.topo.NumQubits),
		profile: map[string]int{},
	}
	btarget := branchTargets(e.instrs)
	for pc := range e.instrs {
		ins := &e.instrs[pc]
		if btarget[pc] {
			// A join point: runs cannot span it, and register contents
			// depend on the incoming path.
			f.flushAll()
			f.clearRegs()
		}
		switch ins.Op {
		case isa.OpSMIS:
			f.sKnown[ins.Addr] = ins.Targets
		case isa.OpSMIT:
			f.tKnown[ins.Addr] = ins.Targets
		case isa.OpBR, isa.OpSTOP:
			// Execution may leave the segment; registers stay valid on
			// the fall-through path.
			f.flushAll()
		case isa.OpBundle:
			f.bundle(pc, ins.Bundle)
		}
	}
	f.flushAll()
	e.fusedKernels = f.kernels
	if f.kernels > 0 || f.total > 0 {
		f.profile[ProfileFusionTotal] = f.total
		f.profile[ProfileFusionFused] = f.kernels + f.elided
		if f.elided > 0 {
			f.profile[ProfileFusionElided] = f.elided
		}
	}
	e.fusedProfile = f.profile
}

// branchTargets marks every instruction reachable by a taken branch
// (OpBR at i jumps to i+Imm): segment heads for the fusion walk.
func branchTargets(instrs []Instr) []bool {
	out := make([]bool, len(instrs))
	for i := range instrs {
		if instrs[i].Op != isa.OpBR {
			continue
		}
		if t := i + int(instrs[i].Imm); t >= 0 && t < len(instrs) {
			out[t] = true
		}
	}
	return out
}

func (f *fuser) clearRegs() {
	f.sKnown = [256]*TargetSet{}
	f.tKnown = [256]*TargetSet{}
}

// bundle processes one quantum bundle's operations in issue order. Any
// operation the pass cannot reason about — a measurement, a deferred
// error, a target register with unknown contents — turns the whole
// bundle into a barrier: every pending run flushes (its anchor then
// precedes the bundle in program order and in dispatch order, since
// timing points are monotone) and no site of the bundle fuses.
func (f *fuser) bundle(pc int, bu *Bundle) {
	sets := make([]*TargetSet, len(bu.Ops))
	barrier := false
	for i := range bu.Ops {
		op := &bu.Ops[i]
		if op.ErrMsg != "" {
			barrier = true
			continue
		}
		if op.Kind == KindGate2 {
			sets[i] = f.tKnown[op.Target]
		} else {
			sets[i] = f.sKnown[op.Target]
		}
		switch {
		case sets[i] == nil:
			barrier = true
		case op.Kind == KindGate2 && sets[i].PairErr != "":
			barrier = true
		case op.Kind != KindGate2 && sets[i].SingleErr != "":
			barrier = true
		case op.Kind == KindMeasure:
			barrier = true
		}
	}
	if barrier {
		f.flushAll()
		for i := range bu.Ops {
			f.countUnfused(&bu.Ops[i], sets[i])
		}
		return
	}
	for i := range bu.Ops {
		op := &bu.Ops[i]
		ts := sets[i]
		if op.Kind == KindGate2 {
			if fusableOp(op) {
				for slot, pr := range ts.Pairs {
					f.joinPair(op, pc, i, slot, len(ts.Pairs), pr)
				}
			} else {
				for _, pr := range ts.Pairs {
					f.barrierQubit(pr.Src)
					f.barrierQubit(pr.Tgt)
				}
				f.countUnfused(op, ts)
			}
			continue
		}
		if fusableOp(op) {
			for slot, q := range ts.Qubits {
				f.joinSingle(op, pc, i, slot, len(ts.Qubits), q)
			}
		} else {
			// Parametric or feedback-conditional: a barrier for its
			// qubits, never a constituent.
			for _, q := range ts.Qubits {
				f.barrierQubit(q)
			}
			f.countUnfused(op, ts)
		}
	}
}

// fusableOp reports whether a gate site can join a run: a static
// kernel (no ParamRef) applied unconditionally (FlagAlways).
func fusableOp(op *BundleOp) bool {
	return op.Param == nil && op.Def.CondSel == isa.FlagAlways
}

// joinSingle folds one single-qubit application into the open run on q
// (starting one when none is open). A later gate multiplies from the
// left: time order g1 then g2 composes as G2·G1.
func (f *fuser) joinSingle(op *BundleOp, pc, opIdx, slot, nTargets, q int) {
	f.total++
	site := fuseSite{op: op, pc: pc, opIdx: opIdx, slot: slot, nTargets: nTargets}
	g := f.pending[q]
	switch {
	case g == nil:
		f.pending[q] = &fuseGroup{qa: q, u2: op.Spec1.U, sites: []fuseSite{site}}
	case !g.pair:
		g.u2 = op.Spec1.U.Mul(g.u2)
		g.sites = append(g.sites, site)
		g.anchorIdx = len(g.sites) - 1
	default:
		// Trailing single-qubit gate over a pair run: embed on the
		// run's high (Src) or low (Tgt) label and fold backwards into
		// the existing two-qubit anchor.
		if q == g.qa {
			g.u4 = quantum.Kron(op.Spec1.U, quantum.Identity).Mul(g.u4)
		} else {
			g.u4 = quantum.Kron(quantum.Identity, op.Spec1.U).Mul(g.u4)
		}
		g.sites = append(g.sites, site)
	}
}

// joinPair folds one two-qubit application on pr into the open runs of
// its qubits: an open pair run on the same oriented pair extends;
// single-qubit runs on either qubit are absorbed as flanking gates; a
// pair run on any other pair flushes first.
func (f *fuser) joinPair(op *BundleOp, pc, opIdx, slot, nTargets int, pr Pair) {
	f.total++
	site := fuseSite{op: op, pc: pc, opIdx: opIdx, slot: slot, nTargets: nTargets}
	if g := f.pending[pr.Src]; g != nil && g.pair {
		if g == f.pending[pr.Tgt] && g.qa == pr.Src && g.qb == pr.Tgt {
			g.u4 = op.Spec2.U.Mul(g.u4)
			g.sites = append(g.sites, site)
			g.anchorIdx = len(g.sites) - 1
			return
		}
		f.flush(g)
	}
	if g := f.pending[pr.Tgt]; g != nil && g.pair {
		f.flush(g)
	}
	ga, gb := f.pending[pr.Src], f.pending[pr.Tgt]
	a2, b2 := quantum.Identity, quantum.Identity
	var sites []fuseSite
	if ga != nil {
		a2 = ga.u2
		sites = ga.sites
	}
	if gb != nil {
		b2 = gb.u2
		sites = mergeSites(sites, gb.sites)
	}
	sites = append(sites, site)
	g := &fuseGroup{
		pair: true, qa: pr.Src, qb: pr.Tgt,
		u4:        op.Spec2.U.Mul(quantum.Kron(a2, b2)),
		sites:     sites,
		anchorIdx: len(sites) - 1,
	}
	f.pending[pr.Src], f.pending[pr.Tgt] = g, g
}

// mergeSites interleaves two program-ordered site lists, preserving
// program order ((pc, opIdx) ascending) for the anchor's provenance.
func mergeSites(a, b []fuseSite) []fuseSite {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]fuseSite, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].pc < b[j].pc || (a[i].pc == b[j].pc && a[i].opIdx < b[j].opIdx) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func (f *fuser) barrierQubit(q int) {
	if g := f.pending[q]; g != nil {
		f.flush(g)
	}
}

func (f *fuser) flushAll() {
	for _, g := range f.pending {
		if g != nil {
			f.flush(g)
		}
	}
}

// flush closes a run. Runs of one site stay on their per-site kernel
// (no annotation); longer runs materialize the anchor's re-classified
// product and the elision markers.
func (f *fuser) flush(g *fuseGroup) {
	f.pending[g.qa] = nil
	if g.pair {
		f.pending[g.qb] = nil
	}
	if len(g.sites) == 1 {
		f.countApp(g.sites[0].op, 1)
		return
	}
	fk := &FusedKernel{Two: g.pair}
	if g.pair {
		sp := quantum.ClassifyGate2(g.u4)
		fk.Spec2 = &sp
		f.profile["fused."+gate2KindName(fk.Spec2.Kind)]++
	} else {
		fk.Spec1 = quantum.ClassifyGate1(g.u2)
		f.profile["fused."+gate1KindName(fk.Spec1.Kind)]++
	}
	fk.Sites = make([]FusedSite, len(g.sites))
	for i, s := range g.sites {
		fk.Sites[i] = FusedSite{PC: s.pc, Op: s.opIdx}
	}
	for i, s := range g.sites {
		if i == g.anchorIdx {
			f.annotate(s, fk)
		} else {
			f.annotate(s, skipKernel)
		}
	}
	f.kernels++
	f.elided += len(g.sites) - 1
}

func (f *fuser) annotate(s fuseSite, fk *FusedKernel) {
	if s.op.Fused == nil {
		s.op.Fused = make([]*FusedKernel, s.nTargets)
	}
	s.op.Fused[s.slot] = fk
}

// countUnfused records a site the pass leaves on its per-site kernel,
// one count per target application (one per site when the target set
// is unknown here — the executed count then depends on live register
// state the plan cannot see).
func (f *fuser) countUnfused(op *BundleOp, ts *TargetSet) {
	n := 1
	if ts != nil {
		if op.Kind == KindGate2 {
			n = len(ts.Pairs)
		} else {
			n = len(ts.Qubits)
		}
	}
	if op.Kind != KindMeasure && op.ErrMsg == "" {
		f.total += n
	}
	f.countApp(op, n)
}

// countApp adds n applications of op's own kernel to the fused profile.
func (f *fuser) countApp(op *BundleOp, n int) {
	if n == 0 {
		return
	}
	switch {
	case op.ErrMsg != "":
	case op.Kind == KindMeasure:
		f.profile["measure"] += n
	case op.Kind == KindGate2:
		f.profile[gate2KindName(op.Spec2.Kind)] += n
	case op.Param != nil:
		f.profile["gate1.parametric"] += n
	default:
		f.profile[gate1KindName(op.Spec1.Kind)] += n
	}
}
