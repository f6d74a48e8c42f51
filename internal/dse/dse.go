// Package dse reproduces the instantiation design-space exploration of
// Section 4.2 (Fig. 7): the total instruction count of the RB, IM and SR
// benchmarks under ten architecture configurations (timing-specification
// method, PI width, SOMQ) swept over VLIW widths 1-4, evaluated with the
// compiler's counting backend.
package dse

import (
	"fmt"
	"strings"

	"eqasm/internal/benchmarks"
	"eqasm/internal/compiler"
	"eqasm/internal/ir"
)

// ConfigSet is the ten Fig. 7 configurations in order.
var ConfigSet = []struct {
	Name string
	Opts compiler.Options
}{
	{"Config1", compiler.Config1},
	{"Config2", compiler.Config2},
	{"Config3", compiler.Config3},
	{"Config4", compiler.Config4},
	{"Config5", compiler.Config5},
	{"Config6", compiler.Config6},
	{"Config7", compiler.Config7},
	{"Config8", compiler.Config8},
	{"Config9", compiler.Config9},
	{"Config10", compiler.Config10},
}

// Widths is the VLIW width sweep of Fig. 7.
var Widths = []int{1, 2, 3, 4}

// Cell is one (benchmark, config, width) data point.
type Cell struct {
	Benchmark string
	Config    string
	Width     int
	Result    compiler.CountResult
	// Relative is Instructions normalised to the Config1 w=1 baseline of
	// the same benchmark.
	Relative float64
}

// Table is a full Fig. 7 dataset.
type Table struct {
	Cells []Cell
	// Order lists the benchmark names in presentation order.
	Order []string
	// Baseline maps benchmark name to its Config1 w=1 instruction count.
	Baseline map[string]int64
	// Schedules keeps the benchmark programs, scheduled ASAP and packed
	// into timing points (no SOMQ), for follow-up statistics.
	Schedules map[string]*ir.Program
}

// BenchmarkSet returns the paper's three workloads. RB uses 4096
// Cliffords per qubit on 7 qubits; IM and SR use the defaults documented
// in the benchmarks package.
func BenchmarkSet(rbCliffords int) (map[string]*ir.Program, []string) {
	if rbCliffords <= 0 {
		rbCliffords = 4096
	}
	set := map[string]*ir.Program{
		"RB": benchmarks.RB(7, rbCliffords, 1),
		"IM": benchmarks.IM(benchmarks.DefaultIM()),
		"SR": benchmarks.SR(benchmarks.DefaultSR()),
	}
	return set, []string{"RB", "IM", "SR"}
}

// Run evaluates the full design space over the paper's three
// benchmarks. rbCliffords <= 0 selects the paper's 4096.
func Run(rbCliffords int) (*Table, error) {
	circuits, order := BenchmarkSet(rbCliffords)
	t := &Table{Baseline: map[string]int64{}, Schedules: map[string]*ir.Program{}}
	for _, name := range order {
		if err := t.addBenchmark(name, circuits[name]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ForCircuit evaluates the full Fig. 7 configuration grid for one
// user-provided circuit (e.g. a cQASM workload), the "bring your own
// benchmark" mode of the design-space exploration. The program is
// scheduled and packed in place.
func ForCircuit(name string, p *ir.Program) (*Table, error) {
	t := &Table{Baseline: map[string]int64{}, Schedules: map[string]*ir.Program{}}
	if err := t.addBenchmark(name, p); err != nil {
		return nil, err
	}
	return t, nil
}

// addBenchmark schedules one workload, counts it across the whole
// configuration grid and appends its cells.
func (t *Table) addBenchmark(name string, p *ir.Program) error {
	pl := (&compiler.Pipeline{}).Append(compiler.PassValidate(), compiler.PassScheduleASAP(),
		compiler.PassPack(nil, nil, false))
	if err := pl.Run(p); err != nil {
		return fmt.Errorf("dse: scheduling %s: %w", name, err)
	}
	t.Order = append(t.Order, name)
	t.Schedules[name] = p
	base, err := compiler.Count(p, compiler.Config1.WithWidth(1))
	if err != nil {
		return err
	}
	t.Baseline[name] = base.Instructions
	for _, cfg := range ConfigSet {
		for _, w := range Widths {
			if cfg.Opts.Spec == compiler.TS2 && w < 2 {
				continue
			}
			r, err := compiler.Count(p, cfg.Opts.WithWidth(w))
			if err != nil {
				return fmt.Errorf("dse: %s %s w=%d: %w", name, cfg.Name, w, err)
			}
			t.Cells = append(t.Cells, Cell{
				Benchmark: name,
				Config:    cfg.Name,
				Width:     w,
				Result:    r,
				Relative:  float64(r.Instructions) / float64(base.Instructions),
			})
		}
	}
	return nil
}

// Lookup returns the cell for (benchmark, config, width).
func (t *Table) Lookup(bench, config string, width int) (Cell, bool) {
	for _, c := range t.Cells {
		if c.Benchmark == bench && c.Config == config && c.Width == width {
			return c, true
		}
	}
	return Cell{}, false
}

// Reduction returns the fractional instruction-count reduction of
// (config, width) versus a reference cell.
func (t *Table) Reduction(bench, refConfig string, refWidth int, config string, width int) (float64, error) {
	ref, ok := t.Lookup(bench, refConfig, refWidth)
	if !ok {
		return 0, fmt.Errorf("dse: no cell %s/%s/w%d", bench, refConfig, refWidth)
	}
	c, ok := t.Lookup(bench, config, width)
	if !ok {
		return 0, fmt.Errorf("dse: no cell %s/%s/w%d", bench, config, width)
	}
	return 1 - float64(c.Result.Instructions)/float64(ref.Result.Instructions), nil
}

// Render formats the table the way Fig. 7 presents it: per benchmark, one
// row per config, instruction counts per width, normalised to the
// Config1 w=1 baseline.
func (t *Table) Render() string {
	var b strings.Builder
	benchOrder := t.Order
	if len(benchOrder) == 0 {
		benchOrder = []string{"RB", "IM", "SR"}
	}
	for _, bench := range benchOrder {
		fmt.Fprintf(&b, "== %s (baseline Config1 w=1: %d instructions) ==\n", bench, t.Baseline[bench])
		fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s   %s\n", "config", "w=1", "w=2", "w=3", "w=4", "relative to baseline")
		for _, cfg := range ConfigSet {
			counts := make([]string, 0, 4)
			rels := make([]string, 0, 4)
			for _, w := range Widths {
				c, ok := t.Lookup(bench, cfg.Name, w)
				if !ok {
					counts = append(counts, "-")
					rels = append(rels, "-")
					continue
				}
				counts = append(counts, fmt.Sprint(c.Result.Instructions))
				rels = append(rels, fmt.Sprintf("%.3f", c.Relative))
			}
			fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s   %s\n",
				cfg.Name, counts[0], counts[1], counts[2], counts[3], strings.Join(rels, " / "))
		}
		// The Section 4.2 ops-per-bundle statistic under the adopted
		// Config 9 for w = 2..4.
		var ops []string
		for _, w := range []int{2, 3, 4} {
			if c, ok := t.Lookup(bench, "Config9", w); ok {
				ops = append(ops, fmt.Sprintf("w=%d: %.3f", w, c.Result.OpsPerBundle()))
			}
		}
		fmt.Fprintf(&b, "effective ops per bundle (Config9): %s\n\n", strings.Join(ops, ", "))
	}
	return b.String()
}

// Headline extracts the comparisons the paper's prose quotes, as
// human-readable lines (used by EXPERIMENTS.md generation and tests).
func (t *Table) Headline() []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if r, err := t.Reduction("RB", "Config1", 1, "Config1", 4); err == nil {
		add("Config1 w=4 vs w=1 (RB): %.0f%% reduction (paper: up to 62%%)", 100*r)
	}
	for _, bench := range []string{"RB", "IM", "SR"} {
		lo, hi := 1.0, 0.0
		for _, w := range []int{2, 3, 4} {
			r, err := t.Reduction(bench, "Config1", w, "Config2", w)
			if err != nil {
				continue
			}
			lo = minF(lo, r)
			hi = maxF(hi, r)
		}
		add("Config2 vs Config1 (%s): %.0f-%.0f%% (paper: RB 20-33, IM 24-45, SR 43-50)", bench, 100*lo, 100*hi)
	}
	for _, bench := range []string{"RB", "IM", "SR"} {
		lo, hi := 1.0, 0.0
		for _, w := range Widths {
			r, err := t.Reduction(bench, "Config1", w, "Config3", w)
			if err != nil {
				continue
			}
			lo = minF(lo, r)
			hi = maxF(hi, r)
		}
		add("Config3 vs Config1 (%s): %.0f-%.0f%% (paper: RB 13-33, IM 28-44, SR ~17)", bench, 100*lo, 100*hi)
	}
	if r, err := t.Reduction("SR", "Config1", 1, "Config5", 1); err == nil {
		add("Config5 (wPI=3) vs Config1 w=1 (SR): %.0f%% (paper: up to 48%%)", 100*r)
	}
	// SOMQ benefit: ConfigN+4 vs ConfigN.
	somqPairs := [][2]string{{"Config3", "Config7"}, {"Config4", "Config8"}, {"Config5", "Config9"}, {"Config6", "Config10"}}
	for _, bench := range []string{"RB", "IM", "SR"} {
		best := 0.0
		for _, pair := range somqPairs {
			for _, w := range Widths {
				r, err := t.Reduction(bench, pair[0], w, pair[1], w)
				if err == nil {
					best = maxF(best, r)
				}
			}
		}
		add("max SOMQ reduction (%s): %.0f%% (paper: RB 42%%, IM ~24%%, SR <=4%%)", bench, 100*best)
	}
	for _, bench := range []string{"RB", "IM", "SR"} {
		if c, ok := t.Lookup(bench, "Config9", 2); ok {
			add("ops/bundle Config9 w=2 (%s): %.3f (paper: RB 1.795, IM 1.485, SR 1.118)", bench, c.Result.OpsPerBundle())
		}
	}
	return out
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
