// Tests of the public eqasm facade: bit-identical parity with the
// sequential machine shot loop, the typed error model, context
// cancellation threading through shots, and streaming.
package eqasm_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"eqasm"
	"eqasm/internal/microarch"
)

// machineShotKeys runs src in the sequential shot loop on one machine
// (Reset and Run per shot, the random stream continuing) and returns
// every shot's histogram key in shot order.
func machineShotKeys(t *testing.T, seed int64, src string, shots int) []string {
	t.Helper()
	m := newMachine(t, applyFixtureTopo(t, microarch.Config{Seed: seed}, fixtureTopo(src)), src)
	keys := make([]string, 0, shots)
	for shot := 0; shot < shots; shot++ {
		m.Reset()
		if err := m.Run(); err != nil {
			t.Fatalf("shot %d: %v", shot, err)
		}
		last := map[int]int{}
		for _, r := range m.Measurements() {
			last[r.Qubit] = r.Result
		}
		qs := make([]int, 0, len(last))
		for q := range last {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		key := ""
		for _, q := range qs {
			key += fmt.Sprint(last[q])
		}
		keys = append(keys, key)
	}
	return keys
}

// Backend.Run with a fixed seed is bit-identical to the sequential
// machine shot loop (machineShotKeys) for every shipped program.
func TestBackendRunMatchesCoreRunShots(t *testing.T) {
	const (
		seed  = 7
		shots = 50
	)
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range shippedPrograms(t) {
		t.Run(name, func(t *testing.T) {
			shots, sim := shots, sim
			copts := fixtureSimOptions(src)
			if copts != nil {
				// Chip-directive fixtures (the chain16 fusion workload)
				// need their own stack, and the machine reference pushes
				// 2^16 amplitudes per gate — a few shots suffice for
				// bit-equality.
				shots = 6
				var err error
				sim, err = eqasm.NewSimulator(append([]eqasm.Option{eqasm.WithSeed(seed)}, copts...)...)
				if err != nil {
					t.Fatal(err)
				}
			}
			want := machineShotKeys(t, seed, src, shots)

			prog, err := eqasm.Assemble(src, copts...)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := sim.RunStream(context.Background(), prog, eqasm.RunOptions{Shots: shots})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, 0, shots)
			for sr := range stream {
				if sr.Err != nil {
					t.Fatal(sr.Err)
				}
				if sr.Shot != len(got) {
					t.Fatalf("shot %d arrived out of order at position %d (workers=1)", sr.Shot, len(got))
				}
				got = append(got, sr.Key)
			}
			if len(got) != shots {
				t.Fatalf("streamed %d shots, want %d", len(got), shots)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shot %d: backend %q, machine %q", i, got[i], want[i])
				}
			}

			// Run aggregates exactly the same outcomes.
			res, err := sim.Run(context.Background(), prog, eqasm.RunOptions{Shots: shots})
			if err != nil {
				t.Fatal(err)
			}
			if res.Shots != shots {
				t.Fatalf("ran %d shots, want %d", res.Shots, shots)
			}
			wantHist := map[string]int{}
			for _, k := range want {
				wantHist[k]++
			}
			if fmt.Sprint(res.Histogram) != fmt.Sprint(wantHist) {
				t.Fatalf("histogram = %v, machine = %v", res.Histogram, wantHist)
			}
		})
	}
}

// Assembly faults surface as *AssembleError with line and column.
func TestAssembleErrorPositions(t *testing.T) {
	_, err := eqasm.Assemble("SMIS S0, {0}\nFROBNICATE S0\nLDI R99, 1\nSTOP")
	if err == nil {
		t.Fatal("bad program assembled")
	}
	var aerr *eqasm.AssembleError
	if !errors.As(err, &aerr) {
		t.Fatalf("error is %T, want *AssembleError", err)
	}
	if len(aerr.Diagnostics) != 2 {
		t.Fatalf("diagnostics = %v, want 2", aerr.Diagnostics)
	}
	d0 := aerr.Diagnostics[0]
	if d0.Line != 2 || d0.Col != 1 {
		t.Fatalf("unknown-op diagnostic at %d:%d, want 2:1 (%s)", d0.Line, d0.Col, d0.Msg)
	}
	d1 := aerr.Diagnostics[1]
	if d1.Line != 3 || d1.Col != 5 {
		t.Fatalf("register diagnostic at %d:%d, want 3:5 (%s)", d1.Line, d1.Col, d1.Msg)
	}
}

// Runtime faults surface as *RuntimeError carrying PC and cycle. A run
// whose every shot faults still reports the plan's static gate profile
// (the H before the fault), since no shot completed to report the
// kernels it executed.
func TestRuntimeErrorCarriesPCAndCycle(t *testing.T) {
	sim, err := eqasm.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		src      string
		pc       int
		gateKind string // "" when the program has no gate site
	}{
		{"classical", "LDI R1, -8\nLD R2, R1(0)\nSTOP", 1, ""},
		{"after-gate", "SMIS S0, {0}\nH S0\nLDI R1, -8\nLD R2, R1(0)\nSTOP", 3, "gate1.hadamard"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := eqasm.Assemble(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(context.Background(), prog, eqasm.RunOptions{Shots: 3})
			if err == nil {
				t.Fatal("faulting program ran clean")
			}
			var rerr *eqasm.RuntimeError
			if !errors.As(err, &rerr) {
				t.Fatalf("error is %T, want *RuntimeError", err)
			}
			if rerr.Shot != 0 {
				t.Fatalf("failing shot = %d, want 0", rerr.Shot)
			}
			if rerr.PC != tc.pc {
				t.Fatalf("faulting PC = %d, want %d (the LD)", rerr.PC, tc.pc)
			}
			if rerr.Cycle < 0 {
				t.Fatalf("cycle = %d, want >= 0", rerr.Cycle)
			}
			var merr *microarch.RuntimeError
			if !errors.As(err, &merr) {
				t.Fatal("RuntimeError does not unwrap to the microarchitectural fault")
			}
			if res == nil || res.Shots != 0 {
				t.Fatalf("partial result = %+v, want 0 completed shots", res)
			}
			if tc.gateKind != "" && res.GateProfile[tc.gateKind] == 0 {
				t.Fatalf("gate profile %v lacks the static %q site", res.GateProfile, tc.gateKind)
			}
		})
	}
}

// Context cancellation threads through shots: a long run stops at a
// shot boundary with a partial result.
func TestRunCancellationMidShots(t *testing.T) {
	src := shippedPrograms(t)["bell.eqasm"]
	prog, err := eqasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	const shots = 10_000_000 // far more than can run before the cancel lands
	done := make(chan struct{})
	var res *eqasm.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = sim.Run(ctx, prog, eqasm.RunOptions{Shots: shots})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run never returned")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	if res == nil || res.Shots == 0 || res.Shots >= shots {
		t.Fatalf("partial result = %+v, want some but not all shots", res)
	}
}

// A cancelled stream delivers its terminal Err to a consumer that is
// still receiving — cancellation must not be mistakable for normal
// completion.
func TestRunStreamDeliversCancellationError(t *testing.T) {
	src := shippedPrograms(t)["bell.eqasm"]
	prog, err := eqasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		stream, err := sim.RunStream(ctx, prog, eqasm.RunOptions{Shots: 10_000_000})
		if err != nil {
			t.Fatal(err)
		}
		var terminal error
		n := 0
		for sr := range stream {
			if sr.Err != nil {
				terminal = sr.Err
				break
			}
			n++
			if n == 3 {
				cancel()
			}
		}
		for range stream {
		} // drain to completion
		cancel()
		if !errors.Is(terminal, context.Canceled) {
			t.Fatalf("round %d: terminal err = %v after %d shots, want context.Canceled", round, terminal, n)
		}
	}
}

// The default-shot and seed options feed Backend runs.
func TestRunOptionDefaults(t *testing.T) {
	src := shippedPrograms(t)["bell.eqasm"]
	prog, err := eqasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(5), eqasm.WithShots(17))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), prog, eqasm.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 17 {
		t.Fatalf("default shots = %d, want 17", res.Shots)
	}
	if len(res.Qubits) != 2 || res.Qubits[0] != 0 || res.Qubits[1] != 2 {
		t.Fatalf("qubits = %v, want [0 2]", res.Qubits)
	}
	// Reproducibility: the same seed gives the same histogram; a
	// RunOptions seed overrides it.
	res2, err := sim.Run(context.Background(), prog, eqasm.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Histogram) != fmt.Sprint(res2.Histogram) {
		t.Fatalf("same seed diverged: %v vs %v", res.Histogram, res2.Histogram)
	}
	res3, err := sim.Run(context.Background(), prog, eqasm.RunOptions{Seed: 1234, Shots: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Shots != 400 {
		t.Fatalf("override shots = %d, want 400", res3.Shots)
	}
}

// Compile produces a program the Backend executes with the documented
// outcome, under the same options the service uses.
func TestCompileThroughPublicAPI(t *testing.T) {
	bell := &eqasm.Circuit{
		Name:      "bell",
		NumQubits: 3, // the two-qubit chip names its qubits 0 and 2
		Gates: []eqasm.Gate{
			{Name: "H", Qubits: []int{0}},
			{Name: "CNOT", Qubits: []int{0, 2}},
			{Name: "MEASZ", Qubits: []int{0}, Measure: true},
			{Name: "MEASZ", Qubits: []int{2}, Measure: true},
		},
	}
	prog, err := eqasm.Compile(bell, eqasm.WithInitWaitCycles(10000), eqasm.WithSOMQ())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), prog, eqasm.RunOptions{Shots: 120})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for key, n := range res.Histogram {
		if key != "00" && key != "11" {
			t.Fatalf("uncorrelated outcome %q", key)
		}
		total += n
	}
	if total != 120 {
		t.Fatalf("histogram sums to %d", total)
	}
	// Too-large circuits are rejected against the chip context.
	if _, err := eqasm.Compile(&eqasm.Circuit{NumQubits: 9,
		Gates: []eqasm.Gate{{Name: "X", Qubits: []int{8}}}}); err == nil {
		t.Fatal("9-qubit circuit compiled for the two-qubit chip")
	}
}

// Invalid run options are loud errors on every backend, not silent
// empty results.
func TestNegativeShotsRejected(t *testing.T) {
	prog, err := eqasm.Assemble(shippedPrograms(t)["bell.eqasm"])
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eqasm.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(context.Background(), prog, eqasm.RunOptions{Shots: -5}); err == nil {
		t.Fatal("negative shot count ran clean")
	}
	if _, err := sim.RunStream(context.Background(), prog, eqasm.RunOptions{Shots: -5}); err == nil {
		t.Fatal("negative shot count streamed clean")
	}
	if _, err := sim.Run(context.Background(), prog, eqasm.RunOptions{Workers: -2}); err == nil {
		t.Fatal("negative worker count ran clean")
	}
}

// Unknown context options fail fast with a useful message.
func TestOptionValidation(t *testing.T) {
	if _, err := eqasm.Assemble("STOP", eqasm.WithTopology("hypercube")); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := eqasm.NewSimulator(eqasm.WithTopology("hypercube")); err == nil {
		t.Fatal("simulator accepted unknown topology")
	}
	if _, err := eqasm.Compile(&eqasm.Circuit{NumQubits: 1,
		Gates: []eqasm.Gate{{Name: "X", Qubits: []int{0}}}},
		eqasm.WithSchedule("random")); err == nil {
		t.Fatal("unknown schedule accepted")
	}
}

// The density-matrix backend supports at most six qubits: a run on the
// seven-qubit surface7 chip is an error, not a panic in a fan-out
// worker.
func TestDensityMatrixRejectsSevenQubitChip(t *testing.T) {
	prog, err := eqasm.Assemble("SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP", eqasm.WithTopology("surface7"))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eqasm.NewSimulator(eqasm.WithTopology("surface7"), eqasm.WithBackend("densitymatrix"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(context.Background(), prog, eqasm.RunOptions{Shots: 4}); err == nil {
		t.Fatal("density-matrix run on a 7-qubit chip succeeded")
	}
}
