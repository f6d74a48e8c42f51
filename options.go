package eqasm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"eqasm/internal/compiler"
	"eqasm/internal/hwconf"
	"eqasm/internal/isa"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// Option configures the eQASM stack at any of its entry points:
// Assemble, Disassemble, LoadBinary, Compile, Operations and
// NewSimulator all accept the same option set and use the fields
// relevant to them. Options that select the instruction-set context
// (topology, hardware configuration, instantiation) determine what a
// program means; options that select the execution context (noise,
// seed, chip backend, tracing) determine how a Simulator runs it.
type Option func(*config)

// config is the resolved option set.
type config struct {
	topoName string
	instName string
	// hwTopo/hwOpCfg are set by WithHardwareConfig (loaded and interned
	// at option-application time, so noise precedence is last-wins).
	hwTopo  *topology.Topology
	hwOpCfg *isa.OpConfig

	noise       NoiseModel
	seed        int64
	backendName string
	fusionOff   bool
	trace       bool
	mock        func(qubit, index int) int

	shots   int
	workers int

	schedule  string
	initWait  int
	somq      bool
	layout    []int
	spec      compiler.TimingSpec
	specSet   bool
	wpi       int
	vliwWidth int

	err error
}

func (c *config) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func newConfig(opts []Option) (*config, error) {
	c := &config{}
	for _, o := range opts {
		o(c)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.shots == 0 {
		c.shots = 1
	}
	if c.workers == 0 {
		c.workers = 1
	}
	return c, nil
}

// WithTopology selects a named chip topology. Topologies lists the
// built-in names; the default is "twoqubit", the paper's Section 5
// validation chip. Selecting "surface17" also switches to the
// pair-list SMIT instantiation unless WithInstantiation overrides it.
//
// The parameterized family "chain<N>" (e.g. "chain1024", 2 <= N <=
// 4096) is a nearest-neighbour chain of N qubits with a matching
// wide-mask instantiation: registers this size exceed the state-vector
// simulator, so chain chips pair with the stabilizer backend for
// Clifford workloads, and programs for chains past 64 qubits have no
// 32-bit binary encoding (they assemble and execute directly).
func WithTopology(name string) Option {
	return func(c *config) { c.topoName = name }
}

// WithHardwareConfig loads the chip topology, operation configuration
// and (if present) noise model from a hardware configuration file,
// overriding WithTopology. The file is read once per process and
// interned by path, so programs assembled under the same file share
// one instruction-set context (and therefore one machine pool).
//
// Noise precedence is positional, like every noise option: a noise
// model in the file applies at this option's place in the list, so put
// WithNoise before WithHardwareConfig to provide a fallback the file
// may override, or after it to force a model regardless of the file.
func WithHardwareConfig(path string) Option {
	return func(c *config) {
		ent, err := internHardwareConfig(path)
		if err != nil {
			c.fail("%v", err)
			return
		}
		c.hwTopo, c.hwOpCfg = ent.topo, ent.opCfg
		if ent.noise != nil {
			c.noise = *ent.noise
		}
	}
}

// WithInstantiation selects a named binary instantiation: "default"
// (the paper's 32-bit seven-qubit binding, Config 9 with VLIW width 2)
// or "surface17" (17-bit qubit masks and explicit SMIT address pairs).
func WithInstantiation(name string) Option {
	return func(c *config) { c.instName = name }
}

// WithSeed fixes the base random seed driving measurement sampling and
// trajectory noise. Executions with the same seed, program and worker
// count are bit-identical.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithNoise parameterises the simulated chip; the zero NoiseModel is an
// ideal chip (the default). Noise options apply in order: the last of
// WithNoise, WithCalibratedNoise and a noise-carrying
// WithHardwareConfig wins.
func WithNoise(n NoiseModel) Option {
	return func(c *config) { c.noise = n }
}

// WithCalibratedNoise applies CalibratedNoise, the Section 5 error
// budget of the paper's seven-qubit transmon processor.
func WithCalibratedNoise() Option {
	return func(c *config) { c.noise = CalibratedNoise() }
}

// Backend names accepted by WithBackend and RunOptions.Backend. A
// Result reports which one a run actually executed on.
const (
	// BackendAuto picks per program: the state vector when noise is
	// configured, the stabilizer tableau for noiseless Clifford-only
	// programs, and the state vector otherwise. This is the default.
	BackendAuto = "auto"
	// BackendStateVector is the trajectory state-vector simulator
	// (any gate set, registers up to 26 qubits).
	BackendStateVector = "statevector"
	// BackendDensityMatrix is the exact density-matrix simulator
	// (any gate set, small registers only).
	BackendDensityMatrix = "densitymatrix"
	// BackendStabilizer is the Gottesman–Knill tableau simulator:
	// Clifford circuits at thousands of qubits, noiseless chips only.
	// A non-Clifford operation is a runtime fault.
	BackendStabilizer = "stabilizer"
)

// validBackendName reports whether name is accepted by WithBackend or
// RunOptions.Backend ("" means auto).
func validBackendName(name string) bool {
	switch name {
	case "", BackendAuto, BackendStateVector, BackendDensityMatrix, BackendStabilizer:
		return true
	}
	return false
}

// WithBackend selects the chip-simulation backend by name: "auto" (the
// default), "statevector", "densitymatrix" or "stabilizer". Auto
// selection routes noiseless Clifford-only programs to the stabilizer
// tableau — which simulates 1000+-qubit Clifford circuits in polynomial
// time — and everything else to the state vector, preserving the exact
// seeded measurement streams either way. RunOptions.Backend overrides
// this per run.
func WithBackend(name string) Option {
	return func(c *config) {
		if !validBackendName(name) {
			c.fail("eqasm: unknown backend %q (valid: auto, statevector, densitymatrix, stabilizer)", name)
			return
		}
		c.backendName = name
	}
}

// WithFusion enables or disables plan-time gate fusion (default on).
// Fusion coalesces runs of adjacent single-qubit gates — and
// single-qubit gates flanking a two-qubit gate on the same pair — into
// one precomposed kernel at plan-build time, so the state-vector hot
// loop pays per fused kernel instead of per gate. It is applied only
// where it is exact (built-in state-vector or density-matrix backend,
// zero noise model) and never changes results: fixed-seed runs are
// identical with fusion on or off. Disable it for A/B comparisons and
// per-gate profiling; RunOptions.Fusion overrides this per run.
func WithFusion(enabled bool) Option {
	return func(c *config) { c.fusionOff = !enabled }
}

// Fusion settings accepted by RunOptions.Fusion ("" uses the
// Simulator's WithFusion setting, which defaults to on).
const (
	// FusionOn enables plan-time gate fusion for the run.
	FusionOn = "on"
	// FusionOff disables plan-time gate fusion for the run.
	FusionOff = "off"
)

// Gate-profile counter keys reported by fused runs (Result.GateProfile,
// alongside the per-kernel "fused.gate1.*" / "fused.gate2.*" kinds).
// ProfileFusionFused / ProfileFusionTotal is the fused/unfused site
// ratio of the plan's gate sites.
const (
	// ProfileFusionTotal counts the gate sites fusion considered.
	ProfileFusionTotal = plan.ProfileFusionTotal
	// ProfileFusionFused counts the sites that joined a fused kernel.
	ProfileFusionFused = plan.ProfileFusionFused
	// ProfileFusionElided counts the sites whose standalone kernel
	// application was absorbed into a fused kernel (fused sites minus
	// emitted kernels).
	ProfileFusionElided = plan.ProfileFusionElided
)

// WithDeviceTrace records the device-operation trace (the simulated
// oscilloscope of the paper's CFC verification); Results and
// ShotResults then carry the rendered trace.
func WithDeviceTrace() Option {
	return func(c *config) { c.trace = true }
}

// WithMockMeasure replaces measurement discrimination with scripted
// results: fn receives the qubit and its 0-based measurement count and
// returns the bit to report — the paper's UHFQC mock-result mode. fn
// must be safe for concurrent use when shots fan out over workers.
func WithMockMeasure(fn func(qubit, index int) int) Option {
	return func(c *config) { c.mock = fn }
}

// WithShots sets the default repetition count a Backend uses when
// RunOptions.Shots is zero (default 1).
func WithShots(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("eqasm: negative shot count %d", n)
			return
		}
		c.shots = n
	}
}

// WithWorkers sets the default shot fan-out of a Simulator (default 1,
// which keeps runs bit-identical to sequential execution; worker w runs
// its shot range on an independent machine seeded seed + w*SeedStride).
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("eqasm: negative worker count %d", n)
			return
		}
		c.workers = n
	}
}

// WithSchedule selects the Compile scheduling discipline: "asap" (the
// default) or "alap".
func WithSchedule(name string) Option {
	return func(c *config) {
		switch name {
		case "asap", "alap":
			c.schedule = name
		default:
			c.fail("eqasm: unknown schedule %q (valid: asap, alap)", name)
		}
	}
}

// WithInitWaitCycles makes Compile idle the chip for n quantum cycles
// before the circuit's first operation (initialisation by relaxation;
// Fig. 3 uses 10000 cycles = 200 us).
func WithInitWaitCycles(n int) Option {
	return func(c *config) { c.initWait = n }
}

// WithSOMQ enables single-operation-multiple-qubit combining when
// Compile emits a timing point (Section 3.4.1).
func WithSOMQ() Option {
	return func(c *config) { c.somq = true }
}

// WithInitialLayout maps the circuit's virtual qubits onto the listed
// physical qubits before scheduling, inserting SWAPs where two-qubit
// gates span non-adjacent placements.
func WithInitialLayout(physical ...int) Option {
	return func(c *config) { c.layout = physical }
}

// WithTimingSpec selects the timing-specification method the compiler
// lowers schedules with (Section 4.2): "ts3" (the default — short
// intervals in the bundle's PI field, long ones via QWAIT) or "ts1"
// (a standalone QWAIT per timing point, QuMIS-fashion). "ts2" places
// QWAITs in bundle slots, which the binary bundle format cannot encode;
// Compile rejects it with an explanatory error.
func WithTimingSpec(name string) Option {
	return func(c *config) {
		spec, err := compiler.ParseTimingSpec(name)
		if err != nil {
			c.fail("eqasm: %v", err)
			return
		}
		c.spec = spec
		c.specSet = true
	}
}

// WithWPI sets the PI field width in bits the ts3 timing lowering may
// use (default: the instantiation's width, 3 bits). Narrower widths
// force more standalone QWAITs (for no PI field at all, use
// WithTimingSpec("ts1")); widths beyond the instantiation's PI field
// are rejected at compile time.
func WithWPI(bits int) Option {
	return func(c *config) {
		if bits < 1 {
			c.fail("eqasm: PI width %d < 1 (use WithTimingSpec(\"ts1\") for QWAIT-only timing)", bits)
			return
		}
		c.wpi = bits
	}
}

// WithVLIWWidth sets how many quantum operations the compiler packs per
// bundle word (default: the instantiation's VLIW width, 2). Width 1
// serialises operations one per word; widths beyond the instantiation's
// are rejected at compile time.
func WithVLIWWidth(w int) Option {
	return func(c *config) {
		if w < 1 {
			c.fail("eqasm: VLIW width %d < 1", w)
			return
		}
		c.vliwWidth = w
	}
}

// NoiseModel collects the physical error parameters of the simulated
// transmon chip. Zero values disable each mechanism, so the zero
// NoiseModel is an ideal chip.
type NoiseModel struct {
	// T1Ns is the relaxation time in nanoseconds (0 = no relaxation).
	T1Ns float64
	// T2Ns is the total dephasing time in nanoseconds (0 = no
	// dephasing); must satisfy T2 <= 2*T1 when both are set.
	T2Ns float64
	// Gate1QError is the depolarizing probability per single-qubit gate.
	Gate1QError float64
	// Gate2QError is the depolarizing probability per two-qubit gate.
	Gate2QError float64
	// ReadoutError is the probability of a wrong measurement bit
	// (symmetric assignment error).
	ReadoutError float64
}

// CalibratedNoise returns the error budget of the paper's Section 5
// seven-qubit transmon processor: the readout error limiting active
// reset to 82.7% and the CZ error limiting Grover to 85.6%.
func CalibratedNoise() NoiseModel {
	return NoiseModel{
		T1Ns:         30_000,
		T2Ns:         22_000,
		Gate1QError:  0.0008,
		Gate2QError:  0.07,
		ReadoutError: 0.09,
	}
}

func (n NoiseModel) internal() quantum.NoiseModel {
	return quantum.NoiseModel{
		T1Ns:         n.T1Ns,
		T2Ns:         n.T2Ns,
		Gate1QError:  n.Gate1QError,
		Gate2QError:  n.Gate2QError,
		ReadoutError: n.ReadoutError,
	}
}

// stack is the instruction-set context a program is bound to: the chip,
// the operation configuration and the binary instantiation that
// assembler, compiler, disassembler and microarchitecture must share
// (Section 3.2). Stacks resolved from the same named options are
// interned, so machine pools and assembled programs are shared across
// call sites.
type stack struct {
	topo  *topology.Topology
	opCfg *isa.OpConfig
	inst  isa.Instantiation
}

var (
	topoCacheMu sync.Mutex
	topoCache   = map[string]*topology.Topology{}

	defaultOpConfig = sync.OnceValue(isa.DefaultConfig)
	surface17Inst   = sync.OnceValue(isa.Surface17Instantiation)

	hwconfCacheMu sync.Mutex
	hwconfCache   = map[string]*hwconfEntry{}
)

// hwconfEntry is one interned hardware configuration file.
type hwconfEntry struct {
	topo  *topology.Topology
	opCfg *isa.OpConfig
	noise *NoiseModel
}

// internHardwareConfig loads a hardware configuration once per path,
// so every program bound through the same file shares one context.
func internHardwareConfig(path string) (*hwconfEntry, error) {
	hwconfCacheMu.Lock()
	defer hwconfCacheMu.Unlock()
	if ent, ok := hwconfCache[path]; ok {
		return ent, nil
	}
	f, topo, opCfg, err := hwconf.LoadFull(path)
	if err != nil {
		return nil, fmt.Errorf("eqasm: hardware config: %w", err)
	}
	ent := &hwconfEntry{topo: topo, opCfg: opCfg}
	if f.Noise != nil {
		m, err := f.NoiseModel()
		if err != nil {
			return nil, fmt.Errorf("eqasm: hardware config: %w", err)
		}
		ent.noise = &NoiseModel{
			T1Ns:         m.T1Ns,
			T2Ns:         m.T2Ns,
			Gate1QError:  m.Gate1QError,
			Gate2QError:  m.Gate2QError,
			ReadoutError: m.ReadoutError,
		}
	}
	hwconfCache[path] = ent
	return ent, nil
}

var topoByName = map[string]func() *topology.Topology{
	"twoqubit":  topology.TwoQubit,
	"surface7":  topology.Surface7,
	"surface17": topology.Surface17,
	"iontrap5":  topology.IonTrap5,
	"ibmqx2":    topology.IBMQX2,
}

// Topologies lists the built-in chip topology names accepted by
// WithTopology, sorted.
func Topologies() []string {
	names := make([]string, 0, len(topoByName))
	for name := range topoByName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func internTopology(name string) (*topology.Topology, error) {
	build, ok := topoByName[name]
	if !ok {
		n, isChain := parseChainName(name)
		if !isChain {
			return nil, fmt.Errorf("eqasm: unknown topology %q (valid: %v or chain<N>, 2 <= N <= %d)",
				name, Topologies(), maxChainQubits)
		}
		build = func() *topology.Topology { return topology.Chain(n) }
	}
	topoCacheMu.Lock()
	defer topoCacheMu.Unlock()
	if t, ok := topoCache[name]; ok {
		return t, nil
	}
	t := build()
	topoCache[name] = t
	return t, nil
}

// maxChainQubits bounds the "chain<N>" topology family (the tableau
// needs ~(2N)^2/8 bytes; 4096 qubits is 8 MiB per machine).
const maxChainQubits = 4096

// parseChainName recognises the "chain<N>" topology family.
func parseChainName(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "chain")
	if !ok || digits == "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 2 || n > maxChainQubits || strconv.Itoa(n) != digits {
		return 0, false
	}
	return n, true
}

var (
	chainInstMu    sync.Mutex
	chainInstCache = map[int]isa.Instantiation{}
)

// chainInstantiation interns the wide-mask instantiation of a chain
// chip, sharing the interned topology so stacks resolved from the same
// name compare equal (one machine pool, shareable plans).
func chainInstantiation(n int) (isa.Instantiation, error) {
	topo, err := internTopology(fmt.Sprintf("chain%d", n))
	if err != nil {
		return isa.Instantiation{}, err
	}
	chainInstMu.Lock()
	defer chainInstMu.Unlock()
	if inst, ok := chainInstCache[n]; ok {
		return inst, nil
	}
	inst := isa.ChainInstantiation(n)
	inst.PairTopology = topo
	chainInstCache[n] = inst
	return inst, nil
}

// resolveStack turns the named context options into the shared
// topology/operation-configuration/instantiation triple.
func (c *config) resolveStack() (stack, error) {
	var st stack
	if c.hwTopo != nil {
		st.topo, st.opCfg = c.hwTopo, c.hwOpCfg
	} else {
		name := c.topoName
		if name == "" {
			name = "twoqubit"
		}
		topo, err := internTopology(name)
		if err != nil {
			return stack{}, err
		}
		st.topo = topo
		st.opCfg = defaultOpConfig()
	}
	switch c.instName {
	case "", "auto":
		if c.topoName == "surface17" && c.hwTopo == nil {
			st.inst = surface17Inst()
		} else if n, isChain := parseChainName(c.topoName); isChain && c.hwTopo == nil {
			inst, err := chainInstantiation(n)
			if err != nil {
				return stack{}, err
			}
			st.inst = inst
		} else {
			st.inst = isa.Default
		}
	case "default":
		st.inst = isa.Default
	case "surface17":
		st.inst = surface17Inst()
	default:
		return stack{}, fmt.Errorf("eqasm: unknown instantiation %q (valid: default, surface17)", c.instName)
	}
	return st, nil
}
