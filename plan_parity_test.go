// Execution goldens: the fixed-seed output of every shipped fixture,
// frozen from the instruction interpreter the decode-once plan
// replaced. The plan is the machine's only execution path; these files
// hold it bit-identical to that interpreter — ideal and noisy, state
// vector and density matrix — on per-shot measurement records (values
// and timestamps), per-shot execution stats, histograms and, for one
// seed per fixture, the device-operation trace.
//
// `go test -run 'TestPlanInterpreterParity' -update .` rewrites
// testdata/golden/exec from the current machine. Only do that
// deliberately, with a parity argument in the commit message: the
// files are the semantic reference, not a snapshot of whatever the
// machine does today.
package eqasm_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"eqasm/internal/asm"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

var updateExecGolden = flag.Bool("update", false, "rewrite testdata/golden/exec from the current machine")

// shotRecord is everything observable about one shot.
type shotRecord struct {
	Meas  []microarch.MeasurementRecord
	Stats microarch.Stats
	Trace []microarch.DeviceOp
	Key   string
}

func recordShot(m *microarch.Machine) shotRecord {
	recs := m.Measurements()
	r := shotRecord{
		Meas:  append([]microarch.MeasurementRecord(nil), recs...),
		Stats: m.Stats(),
		Trace: append([]microarch.DeviceOp(nil), m.DeviceTrace()...),
	}
	last := map[int]int{}
	qubits := []int{}
	for _, rec := range recs {
		if _, seen := last[rec.Qubit]; !seen {
			qubits = append(qubits, rec.Qubit)
		}
		last[rec.Qubit] = rec.Result
	}
	var b strings.Builder
	for _, q := range qubits {
		b.WriteByte(byte('0' + last[q]))
	}
	r.Key = b.String()
	return r
}

// chipConfig fills in the two-qubit validation chip, the Section 5
// gate set and the paper's instantiation where cfg names none.
func chipConfig(cfg microarch.Config) microarch.Config {
	if cfg.Topo == nil {
		cfg.Topo = topology.TwoQubit()
	}
	if cfg.OpConfig == nil {
		cfg.OpConfig = isa.DefaultConfig()
	}
	if cfg.Inst.VLIWWidth == 0 {
		cfg.Inst = isa.Default
	}
	return cfg
}

// assembler returns the assembler of a chipConfig-resolved context.
func assembler(cfg microarch.Config) *asm.Assembler {
	a := asm.New(cfg.OpConfig, cfg.Topo)
	a.Inst = cfg.Inst
	return a
}

// newMachine builds a machine from chipConfig(cfg) and loads src
// assembled under its context.
func newMachine(t testing.TB, cfg microarch.Config, src string) *microarch.Machine {
	t.Helper()
	cfg = chipConfig(cfg)
	m, err := microarch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := assembler(cfg).Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	return m
}

// runShots executes shots repetitions on a fresh machine, each from
// power-on state with the random stream continuing, and returns the
// per-shot records.
func runShots(t *testing.T, cfg microarch.Config, src string, shots int) []shotRecord {
	t.Helper()
	m := newMachine(t, cfg, src)
	var records []shotRecord
	for shot := 0; shot < shots; shot++ {
		m.Reset()
		if err := m.Run(); err != nil {
			t.Fatalf("shot %d: %v", shot, err)
		}
		records = append(records, recordShot(m))
	}
	return records
}

func fixtureSources(t *testing.T) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "programs"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "programs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(e.Name(), ".eqasm")] = string(data)
	}
	if len(out) == 0 {
		t.Fatal("no fixtures shipped")
	}
	return out
}

// fixtureTopo returns the value of a fixture's leading "# topo: <name>"
// directive ("" for the default chip). The directive must appear in the
// fixture's leading comment block.
func fixtureTopo(src string) string {
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(trimmed, "# topo:"); ok {
			return strings.TrimSpace(v)
		}
		if trimmed != "" && !strings.HasPrefix(trimmed, "#") {
			break
		}
	}
	return ""
}

// applyFixtureTopo binds cfg to a fixture's declared chip. Only the
// chain<N> family is supported (the default-chip fixtures carry no
// directive).
func applyFixtureTopo(t *testing.T, cfg microarch.Config, name string) microarch.Config {
	t.Helper()
	if name == "" {
		return cfg
	}
	digits, ok := strings.CutPrefix(name, "chain")
	if !ok {
		t.Fatalf("fixture declares unsupported topology %q", name)
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		t.Fatalf("fixture declares unsupported topology %q", name)
	}
	topo := topology.Chain(n)
	inst := isa.ChainInstantiation(n)
	inst.PairTopology = topo
	cfg.Topo = topo
	cfg.Inst = inst
	return cfg
}

// goldenRun is one (configuration, seed) cell of a fixture's golden.
type goldenRun struct {
	cfg   string
	opts  microarch.Config
	seed  int64
	shots int
}

// header names the run's section in the golden file.
func (r goldenRun) header() string {
	return fmt.Sprintf("run %s seed=%d shots=%d", r.cfg, r.seed, r.shots)
}

// goldenRuns is a fixture's grid: every configuration at three seeds,
// 40 shots each. The ideal state vector at seed 1 also records the
// device-operation trace. Large-register fixtures (the chain-chip
// fusion workloads) run the ideal state vector only, at two seeds and
// 8 shots — the density matrix at 4^16 entries is out of reach, and
// noisy trajectories at 2^16 amplitudes make the sweep
// disproportionately slow; bit-equality needs few shots.
func goldenRuns(t *testing.T, topoName string) []goldenRun {
	noisy := quantum.NoiseModel{
		T1Ns: 30_000, T2Ns: 22_000,
		Gate1QError: 0.0008, Gate2QError: 0.07, ReadoutError: 0.09,
	}
	configs := []struct {
		name string
		opts microarch.Config
	}{
		{"ideal", microarch.Config{}},
		{"noisy", microarch.Config{Noise: noisy}},
		{"density", microarch.Config{UseDensityMatrix: true}},
		{"noisy_density", microarch.Config{Noise: noisy, UseDensityMatrix: true}},
	}
	shots, seeds := 40, []int64{1, 7, 12345}
	if topoName != "" {
		configs, shots, seeds = configs[:1], 8, []int64{1, 7}
	}
	var runs []goldenRun
	for _, c := range configs {
		for _, seed := range seeds {
			opts := applyFixtureTopo(t, c.opts, topoName)
			opts.Seed = seed
			opts.RecordDeviceOps = c.name == "ideal" && seed == 1
			runs = append(runs, goldenRun{cfg: c.name, opts: opts, seed: seed, shots: shots})
		}
	}
	return runs
}

// renderShot renders one shot as golden lines: histogram key, stats
// (TicksRun, InstructionsExecuted, BundlesIssued, QuantumOpsTriggered,
// OpsCancelled, FMRStallTicks, FinalTimeNs), measurements as
// qubit:result@triggerNs/resultNs, then the device trace if recorded.
func renderShot(b *strings.Builder, shot int, r shotRecord) {
	s := r.Stats
	fmt.Fprintf(b, "shot %d key=%s stats=%d,%d,%d,%d,%d,%d,%d meas=", shot, r.Key,
		s.TicksRun, s.InstructionsExecuted, s.BundlesIssued, s.QuantumOpsTriggered,
		s.OpsCancelled, s.FMRStallTicks, s.FinalTimeNs)
	for i, m := range r.Meas {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d:%d@%d/%d", m.Qubit, m.Result, m.TriggerNs, m.ResultNs)
	}
	b.WriteByte('\n')
	for _, op := range r.Trace {
		fmt.Fprintf(b, "  op t=%d cycle=%d %s[%d] cw=%d %s q%d", op.TimeNs, op.Cycle,
			op.Channel, op.Device, op.Codeword, op.OpName, op.Qubit)
		if op.Cancelled {
			b.WriteString(" cancelled")
		}
		b.WriteByte('\n')
	}
}

// renderRun renders a run's golden section: header, histogram and
// every shot.
func renderRun(r goldenRun, records []shotRecord) string {
	var b strings.Builder
	b.WriteString(r.header())
	b.WriteByte('\n')
	hist := map[string]int{}
	for _, rec := range records {
		hist[rec.Key]++
	}
	keys := make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("hist")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s:%d", k, hist[k])
	}
	b.WriteByte('\n')
	for i, rec := range records {
		renderShot(&b, i, rec)
	}
	return b.String()
}

func execGoldenPath(fixture string) string {
	return filepath.Join("testdata", "golden", "exec", fixture+".golden")
}

// readExecGolden splits a fixture's golden file into its run sections,
// keyed by header.
func readExecGolden(t *testing.T, fixture string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(execGoldenPath(fixture))
	if err != nil {
		t.Fatalf("%v (regenerate deliberately with -update)", err)
	}
	sections := map[string]string{}
	for _, sec := range strings.Split(string(data), "\n\n") {
		header, _, _ := strings.Cut(sec, "\n")
		if strings.HasPrefix(header, "run ") {
			sections[header] = strings.TrimSuffix(sec, "\n") + "\n"
		}
	}
	return sections
}

// writeExecGolden writes a fixture's run sections in grid order.
func writeExecGolden(t *testing.T, fixture string, sections []string) {
	t.Helper()
	content := "# " + fixture + ": fixed-seed execution golden, frozen from the instruction\n" +
		"# interpreter (see plan_parity_test.go for the line format).\n\n" +
		strings.Join(sections, "\n")
	if err := os.MkdirAll(filepath.Dir(execGoldenPath(fixture)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(execGoldenPath(fixture), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// diffGolden fails t at the first line where got departs from want.
func diffGolden(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("diverges from the golden at line %d of %s:\ngot:  %s\nwant: %s", i+1, g[0], gl, wl)
		}
	}
}

// TestPlanInterpreterParity holds the machine bit-identical to the
// frozen interpreter goldens on every shipped fixture: per-shot
// measurement records (values and timestamps), execution stats,
// histograms and device traces, for several seeds, with and without
// the calibrated noise model, on both chip simulators.
func TestPlanInterpreterParity(t *testing.T) {
	for name, src := range fixtureSources(t) {
		runs := goldenRuns(t, fixtureTopo(src))
		var want map[string]string
		if !*updateExecGolden {
			want = readExecGolden(t, name)
		}
		sections := make([]string, len(runs))
		for i, r := range runs {
			t.Run(name+"/"+r.cfg, func(t *testing.T) {
				sections[i] = renderRun(r, runShots(t, r.opts, src, r.shots))
				if !*updateExecGolden {
					diffGolden(t, sections[i], want[r.header()])
				}
			})
		}
		if *updateExecGolden {
			writeExecGolden(t, name, sections)
		}
	}
}

// fanRecords runs a plan through the pooled fan-out (the path behind
// the public Backend) and returns the per-shot records; FanPlan calls
// observe serially.
func fanRecords(t *testing.T, pool *microarch.Pool, ex *plan.Executable, seed int64, shots, workers int) []shotRecord {
	t.Helper()
	got := make([]shotRecord, shots)
	err := pool.FanPlan(context.Background(), ex, nil, seed, shots, workers,
		func(shot int, m *microarch.Machine, runErr error) error {
			if runErr != nil {
				return runErr
			}
			got[shot] = recordShot(m)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFanPlanParity holds the pooled fan-out bit-identical to the
// frozen interpreter golden at Workers == 1, and self-consistent when
// the plan is shared by concurrent workers.
func TestFanPlanParity(t *testing.T) {
	for name, src := range fixtureSources(t) {
		t.Run(name, func(t *testing.T) {
			ref := goldenRuns(t, fixtureTopo(src))[0] // ideal, seed 1, traced
			want := readExecGolden(t, name)[ref.header()]
			cfg := chipConfig(ref.opts)
			prog, err := assembler(cfg).Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			// Plans are context-bound: lower under the pool's template
			// (FanPlan rejects plans built under another context).
			pool := microarch.NewPool(cfg)
			ex, err := pool.Plan(prog)
			if err != nil {
				t.Fatal(err)
			}
			seq := fanRecords(t, pool, ex, ref.seed, ref.shots, 1)
			diffGolden(t, renderRun(ref, seq), want)

			// Concurrent workers share one plan; worker 0's shot range
			// stays bit-identical to its sequential stream.
			perWorker := (ref.shots + 3) / 4
			conc := fanRecords(t, pool, ex, ref.seed, ref.shots, 4)
			diffGolden(t, renderRun(ref, conc[:perWorker]), renderRun(ref, seq[:perWorker]))
		})
	}
}
