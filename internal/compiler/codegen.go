package compiler

import (
	"fmt"

	"eqasm/internal/ir"
)

// TimingSpec selects one of the three timing-specification methods
// explored in Section 4.2.
type TimingSpec int

const (
	// TS1 specifies every timing point with a separate QWAIT instruction
	// (the QuMIS fashion).
	TS1 TimingSpec = iota
	// TS2 lets a QWAIT occupy a VLIW slot inside the quantum bundle
	// instruction in place of a quantum operation (requires width >= 2).
	TS2
	// TS3 uses the PI field of the bundle word for short intervals and a
	// separate QWAIT for longer ones — the method the instantiation
	// adopts (Config 9: wPI = 3).
	TS3
)

func (t TimingSpec) String() string {
	switch t {
	case TS1:
		return "ts1"
	case TS2:
		return "ts2"
	case TS3:
		return "ts3"
	}
	return fmt.Sprintf("TimingSpec(%d)", int(t))
}

// ParseTimingSpec maps the names used by CLI flags and public options.
func ParseTimingSpec(name string) (TimingSpec, error) {
	switch name {
	case "ts1":
		return TS1, nil
	case "ts2":
		return TS2, nil
	case "ts3":
		return TS3, nil
	}
	return 0, fmt.Errorf("compiler: unknown timing specification %q (valid: ts1, ts2, ts3)", name)
}

// Options parameterises the architecture being explored — the Section
// 4.2 design knobs, consumed by the pack, timing-lowering and emit
// passes and by the Counter observer.
type Options struct {
	Spec TimingSpec
	// WPI is the PI field width in bits (TS3 only).
	WPI int
	// SOMQ enables single-operation-multiple-qubit combining.
	SOMQ bool
	// VLIWWidth is the number of operations per bundle word (w).
	VLIWWidth int
}

func (o Options) String() string {
	pi := "no PI"
	if o.Spec == TS3 {
		pi = fmt.Sprintf("wPI=%d", o.WPI)
	}
	somq := "no SOMQ"
	if o.SOMQ {
		somq = "SOMQ"
	}
	return fmt.Sprintf("(%s, %s, %s) w=%d", o.Spec, pi, somq, o.VLIWWidth)
}

// Validate rejects inconsistent option sets.
func (o Options) Validate() error {
	if o.VLIWWidth < 1 {
		return fmt.Errorf("compiler: VLIW width %d < 1", o.VLIWWidth)
	}
	if o.Spec == TS2 && o.VLIWWidth < 2 {
		return fmt.Errorf("compiler: ts2 requires VLIW width >= 2 (Section 4.2)")
	}
	if o.Spec == TS3 && (o.WPI < 1 || o.WPI > 20) {
		return fmt.Errorf("compiler: ts3 needs a PI width in [1,20], got %d", o.WPI)
	}
	return nil
}

// The ten architecture configurations of Fig. 7.
var (
	// Config1 is (ts1, no PI, no SOMQ); Config1 with w=1 is the baseline.
	Config1 = Options{Spec: TS1, VLIWWidth: 1}
	// Config2 is (ts2, no PI, no SOMQ).
	Config2 = Options{Spec: TS2, VLIWWidth: 2}
	// Config3..6 are (ts3, wPI=1..4, no SOMQ).
	Config3 = Options{Spec: TS3, WPI: 1, VLIWWidth: 1}
	Config4 = Options{Spec: TS3, WPI: 2, VLIWWidth: 1}
	Config5 = Options{Spec: TS3, WPI: 3, VLIWWidth: 1}
	Config6 = Options{Spec: TS3, WPI: 4, VLIWWidth: 1}
	// Config7..10 are (ts3, wPI=1..4, SOMQ). Config9 with w=2 is the
	// adopted instantiation.
	Config7  = Options{Spec: TS3, WPI: 1, SOMQ: true, VLIWWidth: 1}
	Config8  = Options{Spec: TS3, WPI: 2, SOMQ: true, VLIWWidth: 1}
	Config9  = Options{Spec: TS3, WPI: 3, SOMQ: true, VLIWWidth: 1}
	Config10 = Options{Spec: TS3, WPI: 4, SOMQ: true, VLIWWidth: 1}
)

// WithWidth returns the options with the VLIW width replaced.
func (o Options) WithWidth(w int) Options {
	o.VLIWWidth = w
	return o
}

// CountResult is the instruction-count outcome of one configuration.
type CountResult struct {
	// Instructions is the total instruction count (the Fig. 7 metric).
	Instructions int64
	// BundleWords counts quantum bundle instruction words.
	BundleWords int64
	// QWaits counts standalone QWAIT instructions.
	QWaits int64
	// EffectiveOps counts quantum operations after SOMQ combining.
	EffectiveOps int64
	// RawGates counts circuit gates before combining.
	RawGates int64
	// Points counts distinct timing points.
	Points int64
}

// OpsPerBundle is the average effective quantum operations per bundle
// word (the Section 4.2 statistic: 1.795/1.485/1.118 for RB/IM/SR under
// Config 9 with w=2).
func (r CountResult) OpsPerBundle() float64 {
	if r.BundleWords == 0 {
		return 0
	}
	return float64(r.EffectiveOps) / float64(r.BundleWords)
}

// GatesPerPoint is the mean number of gates per timing point, the
// parallelism statistic that separates RB/IM from SR in Section 4.2.
func (r CountResult) GatesPerPoint() float64 {
	if r.Points == 0 {
		return 0
	}
	return float64(r.RawGates) / float64(r.Points)
}

// Counter is the Fig. 7 instruction-count observer: attached after the
// pack pass, it sizes the eQASM program a packed schedule compiles to
// under one architecture configuration, following the paper's analysis
// assumptions (the quantum operation target registers always provide
// the required qubit-pair lists, so SMIS/SMIT instructions are not
// counted). It is the design-space-exploration counting mode expressed
// as an observer over the same pipeline the executable path runs,
// instead of a parallel code path.
type Counter struct {
	Opt    Options
	Result CountResult
}

// Observer returns the pipeline observer form, firing after the pack
// pass.
func (c *Counter) Observer() Observer {
	return func(pass string, p *ir.Program) error {
		if pass != "pack" {
			return nil
		}
		return c.Observe(p)
	}
}

// Observe sizes a packed program. The program must have been packed
// with the same SOMQ setting as c.Opt (each point's groups already
// reflect the combining).
func (c *Counter) Observe(p *ir.Program) error {
	if err := c.Opt.Validate(); err != nil {
		return err
	}
	var res CountResult
	prev := int64(0)
	maxPI := int64(0)
	if c.Opt.Spec == TS3 {
		maxPI = int64(1)<<uint(c.Opt.WPI) - 1
	}
	w := int64(c.Opt.VLIWWidth)
	for _, pt := range p.Points {
		interval := pt.Cycle - prev
		prev = pt.Cycle
		ops := int64(len(pt.Groups))
		res.RawGates += int64(len(pt.Gates))
		res.EffectiveOps += ops
		res.Points++
		needsWait := interval > 0 || res.Points > 1
		// A point at cycle 0 opening the program needs no interval
		// specification under any method.
		switch c.Opt.Spec {
		case TS1:
			if needsWait {
				res.QWaits++
			}
			res.BundleWords += ceilDiv(ops, w)
		case TS2:
			slots := ops
			if needsWait {
				slots++
			}
			res.BundleWords += ceilDiv(slots, w)
		case TS3:
			if needsWait && interval > maxPI {
				res.QWaits++
			}
			res.BundleWords += ceilDiv(ops, w)
		}
	}
	res.Instructions = res.BundleWords + res.QWaits
	c.Result = res
	return nil
}

// Count sizes the eQASM program a scheduled program compiles to under
// the given architecture options: the pack pass runs on a shallow copy
// with a Counter observer, so p itself is left unchanged and one
// schedule can be counted across the whole configuration grid.
func Count(p *ir.Program, opt Options) (CountResult, error) {
	if err := opt.Validate(); err != nil {
		return CountResult{}, err
	}
	ctr := &Counter{Opt: opt}
	scratch := *p
	pl := (&Pipeline{}).Append(PassPack(nil, nil, opt.SOMQ)).Observe(ctr.Observer())
	if err := pl.Run(&scratch); err != nil {
		return CountResult{}, err
	}
	return ctr.Result, nil
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// IntervalHistogram reports the distribution of intervals between a
// packed program's timing points, the quantity that determines which PI
// width suffices (Section 4.2: "most of the waiting time is short and
// can be encoded in a 3-bit PI field").
func IntervalHistogram(p *ir.Program) map[int64]int {
	h := map[int64]int{}
	for i := 1; i < len(p.Points); i++ {
		h[p.Points[i].Cycle-p.Points[i-1].Cycle]++
	}
	return h
}

// Stats summarises a circuit's gate mix.
type Stats struct {
	Total     int
	SingleQ   int
	TwoQ      int
	Measures  int
	TwoQFrac  float64
	GateNames map[string]int
}

// GateStats computes the gate mix of a program's circuit (the quantity
// the paper quotes: IM has <1% two-qubit gates, SR ~39%).
func GateStats(p *ir.Program) Stats {
	s := Stats{GateNames: map[string]int{}}
	for _, g := range p.Gates {
		s.Total++
		s.GateNames[g.Name]++
		switch {
		case g.Measure:
			s.Measures++
		case g.IsTwoQubit():
			s.TwoQ++
		default:
			s.SingleQ++
		}
	}
	if s.Total > 0 {
		s.TwoQFrac = float64(s.TwoQ) / float64(s.Total)
	}
	return s
}
