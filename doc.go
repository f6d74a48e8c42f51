// Package eqasm is a from-scratch Go reproduction of "eQASM: An
// Executable Quantum Instruction Set Architecture" (X. Fu et al., HPCA
// 2019) — and this package is its public front door: one coherent,
// context-aware API over the assembler, the compiler backend, the
// QuMA_v2 microarchitecture simulator and the job service.
//
// # Programs
//
// Assemble parses eQASM source, Compile lowers a hardware-independent
// Circuit, CompileCircuit parses and compiles cQASM circuit text,
// CompileOpenQASM does the same for OpenQASM 2.0 (ParseCircuit and
// ParseOpenQASM stop after parsing; DetectFormat sniffs which language
// a source text is), and LoadBinary decodes a 32-bit
// instruction image. All of them return a *Program bound to its
// instruction-set context — the chip topology, operation configuration
// and binary instantiation selected by the same functional options
// (WithTopology, WithHardwareConfig, WithInstantiation) — so encoding
// (Bytes), listing (Text) and Disassemble stay coherent with assembly,
// exactly as the paper's Section 3.2 requires of the shared operation
// configuration. Assembly and circuit-parse faults surface as
// *AssembleError with per-diagnostic line and column; execution faults
// as *RuntimeError with PC and cycle.
//
// # Compilation pipeline
//
// Compile, CompileCircuit and CompileOpenQASM drive the paper's Fig. 1
// backend as a staged pass pipeline over a typed circuit IR:
//
//	parse (cQASM / OpenQASM) / lift → map → schedule → pack → regalloc → timing → emit
//
// The cQASM front end reads a v1.0 subset — qubit declarations,
// single- and two-qubit gates, measurements, index lists/ranges
// (x q[0,2], y q[0:3], measure_all) and parallel { g | g } bundles.
// The OpenQASM front end reads a 2.0 subset — the OPENQASM 2.0;
// header, qreg/creg declarations, the primitive U(θ,φ,λ)/CX gates plus
// the qelib1.inc sugar (h x y z s sdg t tdg rx ry rz cx cz swap id u1
// u2 u3, lowered at parse time), single and whole-register measure,
// and barrier (validated, but lowering to no IR: the pipeline never
// reorders gates that share a qubit, so the fence already holds).
// Both lower to the same IR, so the same circuit in either syntax
// compiles to byte-identical eQASM, and
// every later stage is a functional option: WithInitialLayout
// enables the topology-aware mapping pass (SWAP insertion along
// coupling-graph shortest paths), WithSchedule picks ASAP or ALAP,
// WithSOMQ turns on single-operation-multiple-qubit packing, and the
// Section 4.2 design knobs are first class — WithTimingSpec chooses
// how the schedule's timing is made explicit ("ts3", the adopted
// method, hides short intervals in the bundle's PI field; "ts1"
// spends a QWAIT per timing point), WithWPI narrows the PI width, and
// WithVLIWWidth bounds operations per bundle word. The design-space
// instruction-counting mode of Fig. 7 observes the same pipeline
// instead of running a parallel code path.
//
// # Backends
//
// A Backend executes bound programs. Submit and RunStream hand back a
// job (RunStream its stream); Run blocks and returns one Result:
//
//	Submit(ctx, RunRequest{...}, ...)   → *Job (Wait/Results/Status/Cancel/Stream)
//	Run(ctx, p, RunOptions{Shots: 1e3}) → *Result (histogram, stats, totals)
//	RunStream(ctx, p, opts)             → <-chan ShotResult
//
// NewSimulator is the in-process implementation: pooled, reseedable
// cycle-level QuMA_v2 machines, shots fanned over workers, ctx checked
// between shots. Its Run is a plain call on the caller's goroutine
// with no job behind it. With Workers == 1 and a fixed seed a run is
// bit-identical to the classic sequential shot loop. NewClient is the
// remote implementation, speaking the eqasm-serve HTTP API; both
// satisfy the same interface, so code switches between local
// simulation and a serving fleet without rewiring. NewControlledJob
// is the extension point for Backend implementations outside this
// package: it hands an external driver the same Job handle with its
// lifecycle exposed (the sharded serving tier in internal/coordinator
// — cmd/eqasm-coord — is built on it, routing batches across worker
// pools by content-hash affinity with a durable write-ahead log).
//
// Three chip simulators sit under the Simulator, selected by
// WithBackend or per run by RunOptions.Backend ("auto",
// "statevector", "densitymatrix", "stabilizer"):
//
//   - the state vector (default) simulates arbitrary gates up to the
//     26-qubit memory wall;
//   - the density matrix adds exact open-system noise on registers of
//     up to 6 qubits;
//   - the stabilizer tableau runs Clifford circuits (H, Paulis, ±90°
//     rotations, S, CZ, CNOT, Z measurements) at thousands of qubits
//     via Gottesman–Knill — the chain<N> topology family (WithTopology
//     ("chain1024")) pairs with it.
//
// Under "auto" a noiseless program whose execution plan is
// Clifford-only routes to the tableau; anything else falls back to
// the state vector. Both
// measurement-sampling paths draw one uniform variate per
// measurement, so a seeded run produces bit-identical outcomes on
// either backend. Result.Backend names the simulator that ran, and
// Result.GateProfile counts the plan's instruction sites per kernel
// kind. Forcing "stabilizer" onto a non-Clifford program fails with a
// *RuntimeError at the offending gate.
//
// Execution options (WithSeed, WithNoise, WithCalibratedNoise,
// WithBackend, WithDeviceTrace, WithShots, WithWorkers)
// configure backends; per-request RunOptions override shots, seed and
// fan-out.
//
// # Jobs and batches
//
// Submit takes any number of RunRequests — program, per-request
// RunOptions, optional caller tag — and returns immediately with a
// *Job: a future over one Result per request with live per-request
// status (Requests), blocking collection (Wait, or Done + Results),
// cancellation (Cancel, and the Submit ctx governs the whole batch)
// and a live result feed (Stream; attach before the results you care
// about complete). Every request executes exactly as an individual Run
// would — its own shots, seed and worker fan-out, with worker w of a
// request running at the request's seed + w*SeedStride — so a batch
// of N requests is bit-identical per request to N individual Run
// calls; a failing request fails alone and its siblings still run.
// That makes batches the natural unit for sweeps: seed grids, design
// knob grids, multi-circuit workloads.
//
// # Parametric circuits
//
// Rotations (rx, ry, rz) take a literal angle in radians or a named
// symbolic parameter — rx q[0], %theta in cQASM, rx(%theta) q[0] in
// OpenQASM. A parametric circuit
// compiles once into a plan whose symbolic sites are parameter slots;
// Program.Params lists the names. Each request then supplies a bind
// point via RunRequest.Params (or RunOptions.Params — the request map
// wins when both are set): binding builds the handful of concrete gate
// matrices for that point and shares everything else in the plan
// immutably, so a 1000-point sweep pays one compile and 1000 cheap
// binds instead of 1000 compiles. A bound run is bit-identical to
// compiling the same circuit with the literal baked in. Missing,
// unknown and non-finite (NaN/±Inf) values are rejected before any
// shot runs, and under Backend "auto" the Clifford check happens per
// bound point (theta = π routes to the stabilizer tableau, π/4 to the
// state vector). Over the Client the bind point travels as a
// per-request params field and the service's program cache keys on
// circuit structure only — every sweep point shares one cache entry
// and one plan.
//
// On the Simulator the batch runs on an in-process driver goroutine
// over the machine pool. On the Client the batch travels as one POST
// /v1/batches round-trip and the service admits, queues and retires it
// as one unit, returning per-request histograms, per-shot stats and
// summed TotalStats over the wire; the Job handle polls at the
// WithPollInterval cadence. Result.Stats holds the last shot's
// counters (a representative sample), Result.TotalStats the sum over
// every executed shot.
//
// # Execution pipeline
//
// Execution is layered assemble → plan → fan-out. A Program is lowered
// once into a decode-once execution plan — operands pre-resolved,
// microcode looked up, SMIS/SMIT target masks expanded, gates
// classified onto kernel-specialized state-vector paths, durations
// precomputed — and every shot on every pooled machine replays the
// shared read-only plan; the timing-critical loop performs table walks
// only, the paper's central architectural argument. The plan is built
// lazily on the first run (or eagerly via Program.Prepare, which
// serving layers call at submit time so cached programs plan exactly
// once) and is bit-identical at a fixed seed to the interpreter it
// replaced.
//
// A plan with no FMR and no fast-conditional operation is shot
// invariant: no measured bit can change what runs or when, so every
// shot from power-on runs the same timing-queue schedule and only the
// chip's random draws differ. A machine runs such a plan's first shot
// after a load in full, recording the ordered chip calls, and replays
// them on every later shot in the same order — results, stats, traces
// and noisy trajectories stay bit-identical, and a fault surfaces on
// the recorded shot. Programs with feedback run the full machine on
// every shot.
//
// Plan building also runs gate fusion over the lowered stream (default
// on; WithFusion and RunOptions.Fusion switch it): runs of adjacent
// single-qubit gates on one qubit coalesce into one precomposed 2×2
// kernel, single-qubit gates flanking a two-qubit gate on the same
// pair fold into its 4×4, and the products are re-classified so they
// still land on the specialized diagonal/antidiagonal/permutation/
// controlled-phase kernels. The state-vector hot loop then pays one
// amplitude pass per fused kernel instead of per gate. Fusion stops at
// measurements, feedback-conditional gates, symbolic parameter slots
// (static runs around a slot still fuse), control-flow joins and
// unknown target registers, and the machine applies the annotations
// only where they are exact — built-in state-vector or density-matrix
// backend under a zero noise model — so fixed-seed results are
// identical with fusion on or off. Result.GateProfile reports the
// kernels actually executed, including the fused kinds and the
// ProfileFusionFused / ProfileFusionTotal site ratio.
//
// # The stack underneath
//
// The implementation lives under internal/: the eQASM instruction set
// and its 32-bit instantiation (isa), assembler and disassembler
// (asm), the cQASM and OpenQASM 2.0 circuit front ends (cqasm,
// openqasm, sharing the srcerr diagnostic shape), the typed circuit IR
// the compiler passes transform (ir), the pass-pipeline compiler backend
// (compiler), the decode-once execution-plan layer (plan), the QuMA_v2
// control microarchitecture (microarch), the simulated transmon chip
// (quantum), the QuMIS baseline (qumis), the Section 5 experiment
// suite (experiments), the concurrent job service (service), its
// HTTP front end (httpapi), the sharded serving coordinator
// (coordinator) and its write-ahead batch journal (wal). The cmd/
// tools and examples/ programs
// consume only this package. bench_test.go regenerates every table and
// figure of the paper's evaluation and benchmarks the serving layer.
package eqasm
