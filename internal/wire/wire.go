// Package wire declares the JSON schema of the /v1/batches protocol
// once, for every party that speaks it: eqasm.Client encodes requests
// and decodes statuses with these types, internal/httpapi serves them,
// internal/service and internal/coordinator describe their jobs in
// them, and the coordinator journals accepted requests in the Request
// shape. The package depends on nothing else in the module, so the
// public eqasm package can import it without a cycle.
package wire

import "time"

// Request is one program execution of a batch.
type Request struct {
	// Source is program text in the language named by Format.
	Source string `json:"source,omitempty"`
	// Format is the Source language: "eqasm" (default), "cqasm" or
	// "openqasm" (circuit text compiled by the receiving tier).
	Format string `json:"format,omitempty"`
	// Shots is the repetition count (default 1).
	Shots int `json:"shots,omitempty"`
	// Seed, when nonzero, fixes the request's random streams (must be
	// non-negative).
	Seed int64 `json:"seed,omitempty"`
	// Tag is an opaque caller label echoed back in the status.
	Tag string `json:"tag,omitempty"`
	// Chip, when set, names the topology the program was built for;
	// a tier simulating a different chip rejects the request.
	Chip string `json:"chip,omitempty"`
	// Backend overrides the chip-simulation backend: "auto",
	// "statevector", "densitymatrix" or "stabilizer".
	Backend string `json:"backend,omitempty"`
	// Fusion overrides plan-time gate fusion: "on" or "off".
	Fusion string `json:"fusion,omitempty"`
	// Params binds the program's symbolic rotation parameters (name →
	// angle in radians). They are a bind point, not program content, so
	// they stay out of every program cache key.
	Params map[string]float64 `json:"params,omitempty"`
}

// BatchRequest is the POST /v1/batches payload: N requests admitted,
// queued and retired as one unit.
type BatchRequest struct {
	Requests []Request `json:"requests"`
	// Priority orders the whole batch: "low", "normal" (default) or
	// "high".
	Priority string `json:"priority,omitempty"`
	// Wait makes the POST synchronous: the response is the terminal
	// batch status instead of a queued-batch ticket.
	Wait bool `json:"wait,omitempty"`
}

// State is a batch's (or one request's) lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// ExecStats are execution counters: of one shot or summed over many.
type ExecStats struct {
	// Instructions counts retired instructions.
	Instructions int64 `json:"instructions"`
	// Bundles counts quantum bundle instructions issued.
	Bundles int64 `json:"bundles"`
	// QuantumOps counts micro-operations reaching the timing controller.
	QuantumOps int64 `json:"quantum_ops"`
	// CancelledOps counts operations gated off by fast conditional
	// execution.
	CancelledOps int64 `json:"cancelled_ops"`
	// FMRStallTicks counts classical ticks stalled on FMR.
	FMRStallTicks int64 `json:"fmr_stall_ticks"`
	// DurationNs is the simulated wall-clock time at halt (summed across
	// shots in an aggregate, it is total simulated chip time).
	DurationNs int64 `json:"duration_ns"`
}

// Add accumulates o's counters into s.
func (s *ExecStats) Add(o ExecStats) {
	s.Instructions += o.Instructions
	s.Bundles += o.Bundles
	s.QuantumOps += o.QuantumOps
	s.CancelledOps += o.CancelledOps
	s.FMRStallTicks += o.FMRStallTicks
	s.DurationNs += o.DurationNs
}

// RequestStatus is one request's status and, once finished, outcome.
// A queued or running request reports its index, tag, state and cache
// hit only; the outcome fields are set when it finishes, partial when
// it failed or was cancelled mid-run.
type RequestStatus struct {
	// Index is the request's position in the batch.
	Index int `json:"index"`
	// Tag echoes Request.Tag.
	Tag string `json:"tag,omitempty"`
	// Status is the request's lifecycle phase.
	Status State `json:"status"`
	// Shots counts the request's executed shots.
	Shots int `json:"shots"`
	// Histogram counts measurement outcomes; keys are bitstrings over
	// Qubits in ascending order (the last result per qubit within a
	// shot); a program that measures nothing contributes to the "" key.
	Histogram map[string]int `json:"histogram,omitempty"`
	// Qubits lists the measured qubits, ascending.
	Qubits []int `json:"qubits,omitempty"`
	// Stats are the counters of the request's last executed shot.
	Stats ExecStats `json:"stats"`
	// TotalStats sums the counters of every executed shot.
	TotalStats ExecStats `json:"total_stats"`
	// CacheHit reports that the request's program came from the
	// executing tier's program cache.
	CacheHit bool `json:"cache_hit"`
	// Backend names the chip-simulation backend that executed the
	// shots ("statevector", "densitymatrix" or "stabilizer").
	Backend string `json:"backend,omitempty"`
	// RunTime spans the request's first shot batch start to its last
	// batch end.
	RunTime time.Duration `json:"run_ns"`
	// Error is the request's failure or cancellation message.
	Error string `json:"error,omitempty"`
}

// BatchStatus describes a batch in every /v1/batches response.
type BatchStatus struct {
	ID       string          `json:"id"`
	Status   State           `json:"status"`
	Priority string          `json:"priority"`
	Requests []RequestStatus `json:"requests"`
	// Error is the batch's first failure or its cancellation cause,
	// set once the batch is terminal.
	Error string `json:"error,omitempty"`
}

// Batch is a submitted batch as a serving tier hands it to the HTTP
// front end: a live handle each tier implements over its eqasm.Job.
type Batch interface {
	// Describe snapshots the batch's status.
	Describe() BatchStatus
	// Done is closed when the batch reaches a terminal state.
	Done() <-chan struct{}
	// Cancel stops the batch; safe to call at any time.
	Cancel()
}
