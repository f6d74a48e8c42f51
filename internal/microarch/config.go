// Package microarch is a cycle-level model of QuMA_v2, the quantum
// control microarchitecture of Fig. 9 that executes the instantiated
// eQASM: a classical pipeline feeding a VLIW quantum pipeline, a
// microcode unit with Q control store, mask-based qubit address
// resolution (Table 2), operation combination, a device event distributor
// in front of queue-based timing control, fast conditional execution, and
// the Qi/Ci measurement-result protocol of comprehensive feedback
// control.
//
// The two timing domains of the paper are modelled explicitly: the
// classical pipeline and quantum front-end advance in 10 ns ticks
// (100 MHz), the timing controller and fast-conditional unit on the
// 20 ns quantum cycle grid (50 MHz), matching the Section 4.4
// implementation.
//
// Replay rule: a run of a shot-invariant plan (no FMR, no conditionally
// executed operation; plan.Executable.ShotInvariant) that starts from
// Reset is recorded the first time after a load — ordered backend
// calls, measurement template, stats, device trace and final
// architectural state — and replayed afterwards: the backend receives
// the recorded calls in order, so its random stream advances exactly as
// under the full machine, and the machine ends in the recorded state
// with this shot's measured bits. Loading a plan, SetGPR and WriteWord
// discard the recording; any other run uses the full machine.
package microarch

import (
	"eqasm/internal/isa"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// Config assembles a Machine. Zero fields take the defaults documented on
// each; Topo and OpConfig are mandatory.
type Config struct {
	// Topo is the quantum chip topology controlled by the processor.
	Topo *topology.Topology
	// OpConfig is the compile-time quantum operation configuration; it
	// drives the microcode unit and pulse semantics, and must be the same
	// object the assembler used (Section 3.2).
	OpConfig *isa.OpConfig
	// Inst is the binary instantiation; defaults to isa.Default.
	Inst isa.Instantiation

	// Noise configures the simulated chip; zero is an ideal chip.
	Noise quantum.NoiseModel
	// Seed seeds measurement sampling and trajectory noise.
	Seed int64
	// UseDensityMatrix selects the exact density-matrix backend instead
	// of the trajectory state-vector backend (small registers only).
	UseDensityMatrix bool
	// UseStabilizer selects the Gottesman–Knill tableau backend: Clifford
	// circuits at thousands of qubits, but any non-Clifford operation is a
	// runtime fault and Noise must be the zero model.
	UseStabilizer bool
	// Backend overrides the constructed backend entirely when non-nil.
	Backend quantum.Backend
	// DisableFusion turns off plan-time gate fusion for this machine's
	// planned executions. Fusion is otherwise applied automatically when
	// it is exact: built-in state-vector or density-matrix backend and
	// the zero noise model (per-gate timing is then unobservable).
	// Custom backends, stabilizer runs and noisy runs never use fusion
	// regardless of this flag.
	DisableFusion bool

	// MockMeasure, when non-nil, replaces measurement discrimination with
	// scripted results: it receives the qubit and the per-qubit
	// measurement count (0-based) and returns the bit to report. This is
	// how the paper verified CFC, programming the UHFQC to produce mock
	// results with no qubits attached.
	MockMeasure func(qubit, index int) int

	// ClassicalTickNs is the classical pipeline period (default 10 ns,
	// 100 MHz).
	ClassicalTickNs int
	// ClassicalIPC is the number of instructions the pipeline can issue
	// per tick (default 1). The paper notes the microarchitecture "can
	// also introduce multiple-issue mechanisms as classical superscalar
	// processors to increase R_allowed" (Section 2.4); raising this
	// models that extension and moves the issue-rate wall, which the
	// ablation benchmarks measure.
	ClassicalIPC int
	// CycleTicks is the quantum cycle length in classical ticks (default
	// 2: 20 ns at 100 MHz).
	CycleTicks int
	// QuantumPipelineTicks is the depth of the quantum front end: ticks
	// between a quantum instruction issuing and its micro-operations
	// reaching the event queues (default 8).
	QuantumPipelineTicks int
	// BranchPenaltyTicks stalls the pipeline after a taken branch
	// (default 3).
	BranchPenaltyTicks int
	// ResultToFlagTicks is the fast path from measurement discrimination
	// to the execution-flag registers (default 3; together with
	// OutputDelayNs this reproduces the paper's ~92 ns fast-conditional
	// feedback latency).
	ResultToFlagTicks int
	// ResultToQiTicks is the slower path from discrimination to the
	// qubit measurement result registers crossing into the classical
	// domain (default 12; the CFC path then measures ~316 ns end to end).
	ResultToQiTicks int
	// OutputDelayNs is the digital output path from the timing controller
	// through the 32-bit device interface (default 52 ns).
	OutputDelayNs int
	// InitialSlackCycles positions the timeline origin ahead of the first
	// quantum instruction (the paper's external start trigger; default 2).
	InitialSlackCycles int
	// EventQueueCapacity bounds the timing unit's event queues (Fig. 9
	// buffers are finite in hardware). 0 means unbounded; a positive
	// value makes deep reservation ahead of the timer a detectable
	// overflow fault.
	EventQueueCapacity int

	// MemoryBytes sizes the data memory (default 64 KiB).
	MemoryBytes int
	// MaxTicks is the watchdog limit (default 200M ticks = 2 s).
	MaxTicks int64
	// RecordDeviceOps enables the device-operation trace (the simulated
	// oscilloscope the CFC experiment probes).
	RecordDeviceOps bool
}

func (c Config) withDefaults() Config {
	if c.Inst.VLIWWidth == 0 {
		c.Inst = isa.Default
	}
	if c.ClassicalTickNs == 0 {
		c.ClassicalTickNs = 10
	}
	if c.ClassicalIPC == 0 {
		c.ClassicalIPC = 1
	}
	if c.CycleTicks == 0 {
		c.CycleTicks = 2
	}
	if c.QuantumPipelineTicks == 0 {
		c.QuantumPipelineTicks = 8
	}
	if c.BranchPenaltyTicks == 0 {
		c.BranchPenaltyTicks = 3
	}
	if c.ResultToFlagTicks == 0 {
		c.ResultToFlagTicks = 3
	}
	if c.ResultToQiTicks == 0 {
		c.ResultToQiTicks = 12
	}
	if c.OutputDelayNs == 0 {
		c.OutputDelayNs = 52
	}
	if c.InitialSlackCycles == 0 {
		c.InitialSlackCycles = 2
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 64 * 1024
	}
	if c.MaxTicks == 0 {
		c.MaxTicks = 200_000_000
	}
	return c
}
