package microarch

import (
	"encoding/binary"
	"fmt"

	"eqasm/internal/isa"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
	"eqasm/internal/stabilizer"
)

// MaxSVQubits is the largest register the state-vector backend will
// allocate (2^26 amplitudes = 1 GiB); larger chips must run Clifford
// programs on the stabilizer backend.
const MaxSVQubits = 26

// MaxDMQubits is the largest register the density-matrix backend
// supports.
const MaxDMQubits = 6

// Machine is one QuMA_v2 quantum processor instance: architectural state
// (Fig. 2), microarchitectural state (Fig. 9) and the simulated chip.
type Machine struct {
	cfg     Config
	backend quantum.Backend
	// specBE is the backend's kernel-specialized gate path, nil when
	// the backend has none (planned execution then falls back to the
	// generic Apply1/Apply2 calls).
	specBE quantum.SpecBackend
	cstore *ControlStore

	// program is the loaded plan's source program, which fault reports
	// quote; exec is the decode-once plan the pipeline executes.
	program []isa.Instr
	exec    *plan.Executable
	// binding patches the plan's symbolic parameter slots with bound
	// kernels; nil for non-parametric plans.
	binding *plan.Binding
	// fusionOK records whether this machine's configuration admits
	// fused execution (built-in SV/DM backend, zero noise, fusion not
	// disabled); fused is set per loaded plan: fusionOK and the plan
	// actually has fused runs.
	fusionOK bool
	fused    bool
	pinst    []plan.Instr
	sSets    []*plan.TargetSet
	tSets    []*plan.TargetSet
	// sSetDirty/tSetDirty list the planned target-register slots that
	// held a non-empty set since the last reset, so per-shot resets
	// restore exactly those instead of sweeping both register files;
	// the listed bitmaps keep each slot on its list at most once.
	sSetDirty  []uint8
	tSetDirty  []uint8
	sSetListed []bool
	tSetListed []bool

	// Classical pipeline state.
	pc       int
	gpr      []uint32
	cmpFlags isa.ComparisonFlags
	mem      []byte
	// memDirtyHi is the high-water mark of data-memory writes since the
	// last Reset: only mem[:memDirtyHi] can be non-zero, so Reset clears
	// exactly that prefix instead of the whole image every shot.
	memDirtyHi int
	halted     bool
	stallTicks int
	fmrStalled bool

	// Quantum pipeline and timing state. The Hi files hold the wide-mask
	// extension words of chain chips past 64 qubits/pairs (nil on narrow
	// chips and for narrow register values).
	sRegs          []uint64
	tRegs          []uint64
	sRegsHi        [][]uint64
	tRegsHi        [][]uint64
	lastPointCycle int64
	timelineLive   bool
	events         eventHeap
	eventSeq       int64
	// claimCycle/claimOp implement the operation-combination collision
	// check: timing points are monotone within a run (PI and QWAIT
	// intervals are non-negative), so only the most recent claim per
	// qubit can collide — a (cycle, qubit) map degenerates to two
	// per-qubit arrays.
	claimCycle []int64
	claimOp    []string
	results    []pendingResult
	// nextResultTick caches the earliest pending measurement
	// write-back (noResultPending when none), gating deliverResults.
	nextResultTick int64

	// Measurement-result architecture (CFC protocol).
	measCounters []int   // Ci per qubit
	qResults     []uint8 // Qi per qubit
	measIssued   []int   // total measurements issued per qubit (mock indexing)

	// Fast-conditional-execution state.
	execLast []uint8
	execPrev []uint8
	haveLast []bool
	havePrev []bool

	// Chip clock bookkeeping for decoherence.
	qubitLocalNs []float64
	// busyUntil tracks, per qubit, the cycle at which the executing pulse
	// ends; triggering a new pulse earlier is a control error.
	busyUntil []int64

	tick    int64
	stats   Stats
	trace   []DeviceOp
	measRec []MeasurementRecord
	err     error
	// shotMeasures counts the run's measurement calls (the ordinal a
	// pending result carries into the shot recording).
	shotMeasures int32

	// Shot replay (replay.go). fresh: nothing has touched the machine
	// since Reset, so the next run starts from power-on state. rec is
	// the loaded plan's recorded shot; recording is set while the
	// running shot is being recorded. noReplay forces the full machine
	// on every shot (tests compare the two paths).
	fresh     bool
	recording bool
	rec       shotRecording
	noReplay  bool
}

// New builds a machine. Topo and OpConfig are mandatory.
func New(cfg Config) (*Machine, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("microarch: config needs a topology")
	}
	if cfg.OpConfig == nil {
		return nil, fmt.Errorf("microarch: config needs an operation configuration")
	}
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg}
	m.backend = cfg.Backend
	if m.backend == nil {
		switch {
		case cfg.UseStabilizer:
			if cfg.Noise != (quantum.NoiseModel{}) {
				return nil, fmt.Errorf("microarch: the stabilizer backend cannot simulate noise; use the state-vector backend")
			}
			m.backend = stabilizer.New(cfg.Topo.NumQubits, cfg.Seed)
		case cfg.UseDensityMatrix:
			if cfg.Topo.NumQubits > MaxDMQubits {
				return nil, fmt.Errorf("microarch: %d qubits exceed the %d-qubit density-matrix limit",
					cfg.Topo.NumQubits, MaxDMQubits)
			}
			m.backend = quantum.NewDMBackend(cfg.Topo.NumQubits, cfg.Noise, cfg.Seed)
		default:
			if cfg.Topo.NumQubits > MaxSVQubits {
				return nil, fmt.Errorf("microarch: %d qubits exceed the %d-qubit state-vector limit; only the stabilizer backend reaches this size (Clifford circuits only)",
					cfg.Topo.NumQubits, MaxSVQubits)
			}
			m.backend = quantum.NewSVBackend(cfg.Topo.NumQubits, cfg.Noise, cfg.Seed)
		}
	}
	if m.backend.NumQubits() < cfg.Topo.NumQubits {
		return nil, fmt.Errorf("microarch: backend has %d qubits, topology needs %d",
			m.backend.NumQubits(), cfg.Topo.NumQubits)
	}
	m.gpr = make([]uint32, cfg.Inst.NumGPR)
	m.mem = make([]byte, cfg.MemoryBytes)
	m.sRegs = make([]uint64, cfg.Inst.NumSReg)
	m.tRegs = make([]uint64, cfg.Inst.NumTReg)
	m.sRegsHi = make([][]uint64, cfg.Inst.NumSReg)
	m.tRegsHi = make([][]uint64, cfg.Inst.NumTReg)
	n := cfg.Topo.NumQubits
	m.measCounters = make([]int, n)
	m.qResults = make([]uint8, n)
	m.measIssued = make([]int, n)
	m.execLast = make([]uint8, n)
	m.execPrev = make([]uint8, n)
	m.haveLast = make([]bool, n)
	m.havePrev = make([]bool, n)
	m.qubitLocalNs = make([]float64, n)
	m.busyUntil = make([]int64, n)
	m.claimCycle = make([]int64, n)
	m.claimOp = make([]string, n)
	m.sSets = make([]*plan.TargetSet, cfg.Inst.NumSReg)
	m.tSets = make([]*plan.TargetSet, cfg.Inst.NumTReg)
	for i := range m.sSets {
		m.sSets[i] = plan.EmptyTargets
	}
	for i := range m.tSets {
		m.tSets[i] = plan.EmptyTargets
	}
	m.sSetListed = make([]bool, cfg.Inst.NumSReg)
	m.tSetListed = make([]bool, cfg.Inst.NumTReg)
	m.specBE, _ = m.backend.(quantum.SpecBackend)
	// Fusion changes where between two measurements a gate's unitary is
	// applied, which is only unobservable when nothing happens between
	// gates: the built-in backends with the zero noise model. Noise
	// channels, custom backends and the stabilizer tableau (which wants
	// per-gate Clifford routing) always execute per-site kernels.
	m.fusionOK = cfg.Backend == nil && !cfg.UseStabilizer && !cfg.DisableFusion &&
		cfg.Noise == (quantum.NoiseModel{})
	// The microcode table is shared with every other machine (and every
	// execution plan) built from this operation configuration.
	m.cstore = plan.InternControlStore(cfg.OpConfig)
	return m, nil
}

// LoadProgram lowers an assembled program into a decode-once execution
// plan under the machine's instruction-set context and installs it,
// resetting execution state (the quantum state and data memory are
// preserved, as when the host CPU uploads new quantum code). Programs
// with symbolic parameters fail here: a parametric plan runs bound,
// through Pool.FanPlan. Hot shot loops should lower the program once
// with plan.Build and share the plan through LoadPlan.
func (m *Machine) LoadProgram(p *isa.Program) error {
	ex, err := plan.Build(p, m.cfg.Topo, m.cfg.OpConfig)
	if err != nil {
		return err
	}
	return m.loadPlan(ex, nil)
}

// LoadPlan installs a decode-once execution plan. The plan is shared
// read-only: any number of machines may execute the same Executable
// concurrently. The plan must have been lowered under exactly this
// machine's instruction-set context — the same topology and operation
// configuration objects (the Section 3.2 consistency requirement;
// pre-expanded pairs, durations and kernels are only valid under the
// context they were resolved against). Contexts are shared/interned by
// the layers above, so in-tree callers satisfy this by construction.
func (m *Machine) LoadPlan(ex *plan.Executable) error {
	return m.loadPlan(ex, nil)
}

func (m *Machine) loadPlan(ex *plan.Executable, b *plan.Binding) error {
	if ex == nil {
		return fmt.Errorf("microarch: nil execution plan")
	}
	if b != nil && b.Plan() != ex {
		return fmt.Errorf("microarch: binding belongs to another execution plan")
	}
	if ex.Topology() != m.cfg.Topo || ex.OpConfig() != m.cfg.OpConfig {
		return fmt.Errorf("microarch: plan lowered for chip %q with a different instruction-set context than the machine's %q",
			ex.Topology().Name, m.cfg.Topo.Name)
	}
	if ex.Parametric() && b == nil {
		return fmt.Errorf("microarch: plan has unbound parameters (%v); bind them (plan.Executable.Bind) and run through Pool.FanPlan",
			ex.ParamNames())
	}
	m.hostWrite()
	m.program = ex.Program().Instrs
	m.exec = ex
	m.binding = b
	m.fused = m.fusionOK && ex.HasFusion()
	m.pinst = ex.Instrs()
	m.resetExecState()
	// Architectural S/T registers survive program uploads; re-derive
	// the pre-expanded views for any live register state so bundles of
	// the new plan read exactly the masks the registers hold.
	for i, v := range m.sRegs {
		if v != 0 || anyMaskWords(m.sRegsHi[i]) {
			m.sSets[i] = plan.ExpandTargetsWide(v, m.sRegsHi[i], m.cfg.Topo)
			m.markSSetDirty(uint8(i))
		}
	}
	for i, v := range m.tRegs {
		if v != 0 || anyMaskWords(m.tRegsHi[i]) {
			m.tSets[i] = plan.ExpandTargetsWide(v, m.tRegsHi[i], m.cfg.Topo)
			m.markTSetDirty(uint8(i))
		}
	}
	return nil
}

// anyMaskWords reports whether any wide-mask extension word is non-zero.
func anyMaskWords(hi []uint64) bool {
	for _, w := range hi {
		if w != 0 {
			return true
		}
	}
	return false
}

// LoadBinary decodes an instruction-word image and installs it.
func (m *Machine) LoadBinary(words []uint32) error {
	p, err := m.cfg.Inst.DecodeProgram(words, m.cfg.OpConfig)
	if err != nil {
		return err
	}
	return m.LoadProgram(p)
}

func (m *Machine) resetExecState() {
	m.pc = 0
	m.halted = false
	m.stallTicks = 0
	m.fmrStalled = false
	m.timelineLive = false
	m.lastPointCycle = 0
	m.events = m.events[:0]
	m.results = m.results[:0]
	m.nextResultTick = noResultPending
	m.tick = 0
	m.stats = Stats{}
	m.trace = m.trace[:0]
	m.measRec = m.measRec[:0]
	m.err = nil
	m.shotMeasures = 0
	for i := range m.measCounters {
		m.measCounters[i] = 0
		m.qResults[i] = 0
		m.measIssued[i] = 0
		m.execLast[i] = 0
		m.execPrev[i] = 0
		m.haveLast[i] = false
		m.havePrev[i] = false
		m.qubitLocalNs[i] = 0
		m.busyUntil[i] = 0
		m.claimCycle[i] = -1
		m.claimOp[i] = ""
	}
	for _, a := range m.sSetDirty {
		m.sSets[a] = plan.EmptyTargets
		m.sSetListed[a] = false
	}
	m.sSetDirty = m.sSetDirty[:0]
	for _, a := range m.tSetDirty {
		m.tSets[a] = plan.EmptyTargets
		m.tSetListed[a] = false
	}
	m.tSetDirty = m.tSetDirty[:0]
}

// markSSetDirty/markTSetDirty put a planned target-register slot on
// the reset list, at most once per reset interval.
func (m *Machine) markSSetDirty(a uint8) {
	if !m.sSetListed[a] {
		m.sSetListed[a] = true
		m.sSetDirty = append(m.sSetDirty, a)
	}
}

func (m *Machine) markTSetDirty(a uint8) {
	if !m.tSetListed[a] {
		m.tSetListed[a] = true
		m.tSetDirty = append(m.tSetDirty, a)
	}
}

// Reset restores the machine to power-on state: execution state, register
// files, data memory and the quantum chip itself.
func (m *Machine) Reset() {
	m.resetExecState()
	for i := range m.gpr {
		m.gpr[i] = 0
	}
	for i := range m.sRegs {
		m.sRegs[i] = 0
		m.sRegsHi[i] = nil
	}
	for i := range m.tRegs {
		m.tRegs[i] = 0
		m.tRegsHi[i] = nil
	}
	// Data memory is only written by ST and the host's WriteWord, below
	// the recorded high-water mark; Reset clears just that prefix, so
	// shot loops stop paying a 64 KiB memset per shot.
	if m.memDirtyHi > 0 {
		clear(m.mem[:m.memDirtyHi])
		m.memDirtyHi = 0
	}
	m.backend.Reset()
	m.cmpFlags = 0
	m.fresh = true
}

// Run executes the loaded program until STOP (draining in-flight quantum
// activity), a microarchitectural fault, or the watchdog limit.
//
// A shot-invariant plan (plan.Executable.ShotInvariant) run from Reset
// is recorded the first time and replayed afterwards: the chip receives
// the recorded calls in order and the machine ends in the recorded
// state with this shot's measured bits, exactly as if the whole machine
// had run (see replay.go).
func (m *Machine) Run() error {
	if m.program == nil {
		return fmt.Errorf("microarch: no program loaded")
	}
	fresh := m.fresh
	m.fresh = false
	if !fresh || m.noReplay || m.rec.tooLong || !m.exec.ShotInvariant() {
		return m.run()
	}
	if m.rec.valid {
		m.replay()
		return nil
	}
	m.startRecording()
	defer func() { m.recording = false }()
	if err := m.run(); err != nil || !m.recording {
		return err
	}
	m.saveRecording()
	return nil
}

// run steps the full machine until STOP, a fault or the watchdog.
func (m *Machine) run() (runErr error) {
	// The stabilizer backend refuses non-Clifford unitaries by panicking
	// with a typed error; surface that as an ordinary machine fault so a
	// forced (or mis-detected) backend choice fails cleanly mid-shot.
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		nc, ok := p.(*quantum.NonCliffordError)
		if !ok {
			panic(p)
		}
		err := &RuntimeError{PC: m.pc, Tick: m.tick, Instr: m.current(), Msg: nc.Error()}
		m.fail(err)
		m.stats.TicksRun = m.tick
		m.stats.FinalTimeNs = m.tick * int64(m.cfg.ClassicalTickNs)
		runErr = err
	}()
	for {
		if m.err != nil {
			m.stats.TicksRun = m.tick
			m.stats.FinalTimeNs = m.tick * int64(m.cfg.ClassicalTickNs)
			return m.err
		}
		if m.done() {
			m.stats.TicksRun = m.tick
			m.stats.FinalTimeNs = m.tick * int64(m.cfg.ClassicalTickNs)
			return nil
		}
		if m.tick >= m.cfg.MaxTicks {
			return &RuntimeError{PC: m.pc, Tick: m.tick, Instr: m.current(),
				Msg: "watchdog limit reached (runaway program?)"}
		}
		m.step()
	}
}

func (m *Machine) done() bool {
	return m.halted && len(m.events) == 0 && len(m.results) == 0
}

func (m *Machine) current() isa.Instr {
	if m.pc >= 0 && m.pc < len(m.program) {
		return m.program[m.pc]
	}
	return isa.Instr{}
}

// noResultPending is the nextResultTick sentinel when no measurement
// write-back is in flight.
const noResultPending = int64(^uint64(0) >> 1)

// step advances one classical tick (possibly fast-forwarding through idle
// time when the pipeline cannot do anything).
func (m *Machine) step() {
	// Timing controller: trigger everything whose timing point has been
	// reached (the controller works on the 50 MHz cycle grid; event
	// timestamps are cycle-aligned by construction).
	if len(m.events) > 0 {
		m.triggerCycle(m.tick / int64(m.cfg.CycleTicks))
	}
	m.deliverResults()
	switch {
	case m.stallTicks > 0:
		m.stallTicks--
	case m.halted:
	case m.fmrStalled:
		m.stats.FMRStallTicks++
		m.retryFMR()
	default:
		// Issue up to ClassicalIPC instructions this tick; a stall,
		// taken branch or halt ends the issue group.
		for i := 0; i < m.cfg.ClassicalIPC; i++ {
			m.execute()
			if m.halted || m.fmrStalled || m.stallTicks > 0 || m.err != nil {
				break
			}
		}
	}
	m.tick++
	m.fastForward()
}

// fastForward jumps over ticks in which nothing can happen: the pipeline
// is halted or stalled on FMR and the next event or result is in the
// future. It preserves cycle alignment by construction (jump targets are
// exact event ticks).
func (m *Machine) fastForward() {
	if m.err != nil || (!m.halted && !m.fmrStalled) || m.stallTicks > 0 {
		return
	}
	next := int64(-1)
	consider := func(t int64) {
		if t > m.tick && (next < 0 || t < next) {
			next = t
		}
	}
	if len(m.events) > 0 {
		consider(m.events[0].cycle * int64(m.cfg.CycleTicks))
	}
	for _, r := range m.results {
		consider(r.flagTick)
		consider(r.qiTick)
	}
	if next > m.tick {
		m.tick = next
	}
}

// --- Architectural state access (the host-CPU view) ---

// GPR returns general purpose register i.
func (m *Machine) GPR(i int) uint32 { return m.gpr[i] }

// SetGPR writes general purpose register i (host upload of parameters).
func (m *Machine) SetGPR(i int, v uint32) {
	m.hostWrite()
	m.gpr[i] = v
}

// SReg returns the single-qubit target register mask.
func (m *Machine) SReg(i int) uint64 { return m.sRegs[i] }

// TReg returns the two-qubit target register mask.
func (m *Machine) TReg(i int) uint64 { return m.tRegs[i] }

// ComparisonFlags returns the comparison flag register.
func (m *Machine) ComparisonFlags() isa.ComparisonFlags { return m.cmpFlags }

// QubitResult returns the qubit measurement result register Qi.
func (m *Machine) QubitResult(q int) int { return int(m.qResults[q]) }

// PendingMeasurements returns the Ci counter of qubit q.
func (m *Machine) PendingMeasurements(q int) int { return m.measCounters[q] }

// ReadWord reads 32 bits of data memory at a byte address (host side of
// the shared data memory).
func (m *Machine) ReadWord(addr int) (uint32, error) {
	if addr < 0 || addr+4 > len(m.mem) {
		return 0, fmt.Errorf("microarch: data address %d out of range", addr)
	}
	return binary.LittleEndian.Uint32(m.mem[addr:]), nil
}

// WriteWord writes 32 bits of data memory at a byte address.
func (m *Machine) WriteWord(addr int, v uint32) error {
	if addr < 0 || addr+4 > len(m.mem) {
		return fmt.Errorf("microarch: data address %d out of range", addr)
	}
	m.hostWrite()
	m.markMemWritten(addr + 4)
	binary.LittleEndian.PutUint32(m.mem[addr:], v)
	return nil
}

// hostWrite notes a host upload — a plan, a register or a data word:
// the next run no longer starts from power-on, and the shot recording
// is discarded.
func (m *Machine) hostWrite() {
	m.fresh = false
	m.rec.discard()
}

// markMemWritten records a data-memory write reaching byte offset hi.
func (m *Machine) markMemWritten(hi int) {
	if hi > m.memDirtyHi {
		m.memDirtyHi = hi
	}
}

// Backend exposes the simulated chip (tests and experiments read exact
// state probabilities from it).
func (m *Machine) Backend() quantum.Backend { return m.backend }

// Config returns the machine's configuration, defaults resolved: its
// Topo, OpConfig and Inst are the instruction-set context a program
// must be assembled under to run here.
func (m *Machine) Config() Config { return m.cfg }

// Reseed restarts the chip's random stream when the backend supports it
// (the shipped simulators do; custom backends may not), reporting
// success. Reseed followed by Reset reproduces a machine freshly built
// at the given seed, which is how machine pools reuse simulator
// allocations across jobs.
func (m *Machine) Reseed(seed int64) bool {
	if r, ok := m.backend.(interface{ Reseed(int64) }); ok {
		r.Reseed(seed)
		return true
	}
	return false
}

// ControlStore exposes the microcode unit's Q control store.
func (m *Machine) ControlStore() *ControlStore { return m.cstore }

// Stats returns execution counters for the last Run.
func (m *Machine) Stats() Stats { return m.stats }

// ExecutedGateProfile returns the kernel profile of the loaded plan as
// this machine executes it: the fused per-application profile when the
// machine runs the plan with fusion, the static per-site profile
// otherwise (nil before any program is loaded).
func (m *Machine) ExecutedGateProfile() map[string]int {
	if m.exec == nil {
		return nil
	}
	if m.fused {
		return m.exec.GateProfileFused()
	}
	return m.exec.GateProfile()
}

// DeviceTrace returns the recorded device operations (requires
// Config.RecordDeviceOps).
func (m *Machine) DeviceTrace() []DeviceOp { return m.trace }

// Measurements returns all completed measurements in completion order.
func (m *Machine) Measurements() []MeasurementRecord { return m.measRec }

// NowNs returns the current simulation time.
func (m *Machine) NowNs() int64 { return m.tick * int64(m.cfg.ClassicalTickNs) }

// CycleNs returns the quantum cycle duration in nanoseconds.
func (m *Machine) CycleNs() int64 {
	return int64(m.cfg.CycleTicks) * int64(m.cfg.ClassicalTickNs)
}

// TickToCycle converts a classical-tick timestamp (as carried by
// RuntimeError.Tick) to the quantum cycle it falls in.
func (m *Machine) TickToCycle(tick int64) int64 {
	return tick / int64(m.cfg.CycleTicks)
}

func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
	m.halted = true
}
