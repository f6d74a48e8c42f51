package microarch

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"eqasm/internal/asm"
	"eqasm/internal/isa"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// lower assembles src under the pool's context and lowers it there.
func lower(t *testing.T, pool *Pool, src string) *plan.Executable {
	t.Helper()
	prog, err := asm.New(pool.cfg.OpConfig, pool.cfg.Topo).Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pool.Plan(prog)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// fanAssembly lowers src under a fresh pool's context — the two-qubit
// validation chip unless cfg names another — and fans it out through
// FanPlan at cfg.Seed.
func fanAssembly(t *testing.T, cfg Config, src string, shots, workers int,
	observe func(shot int, m *Machine, runErr error) error) error {
	t.Helper()
	if cfg.Topo == nil {
		cfg.Topo = topology.TwoQubit()
	}
	if cfg.OpConfig == nil {
		cfg.OpConfig = isa.DefaultConfig()
	}
	pool := NewPool(cfg)
	return pool.FanPlan(context.Background(), lower(t, pool, src), nil, cfg.Seed, shots, workers, observe)
}

// A returned machine is the next checkout; a checked-out one is never
// handed out twice.
func TestPoolReusesMachines(t *testing.T) {
	pool := NewPool(Config{Topo: topology.TwoQubit(), OpConfig: isa.DefaultConfig()})
	get := func(seed int64) *Machine {
		t.Helper()
		m, err := pool.Get(seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := get(1)
	pool.Put(a)
	if b := get(2); b != a {
		t.Fatal("pool built a machine while one was idle")
	}
	if c := get(3); c == a {
		t.Fatal("pool handed out a machine that is checked out")
	}
}

func TestFanPlan(t *testing.T) {
	const shots = 400
	ones := 0
	seen := map[int]bool{}
	err := fanAssembly(t, Config{Seed: 11}, `
SMIS S0, {0}
X90 S0
MEASZ S0
STOP
`, shots, 4, func(shot int, m *Machine, runErr error) error {
		if runErr != nil {
			return runErr
		}
		if seen[shot] {
			t.Errorf("shot %d collected twice", shot)
		}
		seen[shot] = true
		recs := m.Measurements()
		if len(recs) != 1 {
			t.Errorf("shot %d has %d measurements", shot, len(recs))
			return nil
		}
		ones += recs[0].Result
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != shots {
		t.Fatalf("collected %d shots, want %d", len(seen), shots)
	}
	p := float64(ones) / shots
	if math.Abs(p-0.5) > 0.1 {
		t.Fatalf("P(1) = %v, want ~0.5", p)
	}
}

// A shot's run-time fault, as recorded by observe, stops the fan-out
// and comes back from FanPlan.
func TestFanPlanPropagatesErrors(t *testing.T) {
	observed := 0
	err := fanAssembly(t, Config{}, "LDI R1, -8\nLD R2, R1(0)\nSTOP", 4, 2,
		func(_ int, _ *Machine, runErr error) error {
			observed++
			return runErr
		})
	var rerr *RuntimeError
	if !errors.As(err, &rerr) {
		t.Fatalf("FanPlan = %v, want the shot's *RuntimeError", err)
	}
	if observed != 1 {
		t.Fatalf("observed %d shots after the first failure stopped the fan-out, want 1", observed)
	}
}

// More workers than shots clamp to one worker per shot.
func TestFanPlanWorkerClamping(t *testing.T) {
	count := 0
	err := fanAssembly(t, Config{}, "NOP\nSTOP", 3, 16, func(_ int, _ *Machine, runErr error) error {
		count++
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("collected %d, want 3", count)
	}
}

// A binding patches only the plan it was made from: FanPlan refuses a
// binding of another plan instead of patching foreign parameter slots.
func TestFanPlanRejectsForeignBinding(t *testing.T) {
	pool := NewPool(Config{Topo: topology.TwoQubit(), OpConfig: isa.DefaultConfig()})
	ex := lower(t, pool, "SMIS S0, {0}\nRX(%theta) S0\nMEASZ S0\nSTOP")
	other := lower(t, pool, "SMIS S0, {0}\nRY(%theta) S0\nMEASZ S0\nSTOP")
	b, err := ex.Bind(map[string]float64{"theta": 1})
	if err != nil {
		t.Fatal(err)
	}
	observe := func(_ int, _ *Machine, runErr error) error { return runErr }
	if err := pool.FanPlan(context.Background(), other, b, 1, 2, 1, observe); err == nil {
		t.Fatal("FanPlan accepted a binding of another plan")
	}
	if err := pool.FanPlan(context.Background(), ex, b, 1, 2, 1, observe); err != nil {
		t.Fatalf("FanPlan with the plan's own binding: %v", err)
	}
}

// The pool builds its machines with the template's noise model: the
// ground state read through a fully broken discriminator is always 1.
func TestNoiseWiring(t *testing.T) {
	cfg := Config{
		Noise:            quantum.NoiseModel{ReadoutError: 1}, // always flips
		Seed:             1,
		UseDensityMatrix: true,
	}
	err := fanAssembly(t, cfg, "SMIS S0, {0}\nMEASZ S0\nSTOP", 8, 2,
		func(shot int, m *Machine, runErr error) error {
			if runErr != nil {
				return runErr
			}
			if got := m.Measurements()[0].Result; got != 1 {
				t.Errorf("shot %d: readout error not applied: got %d", shot, got)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// A pool over a caller-supplied Config.Backend shares that backend
// with all its machines: a multi-worker fan-out is refused before any
// goroutine touches it (run under -race, a shared-backend fan-out would
// report a data race), and one worker runs every shot on it.
func TestFanPlanSharedBackendOneWorker(t *testing.T) {
	be := quantum.NewSVBackend(3, quantum.Ideal(), 1)
	pool := NewPool(Config{Topo: topology.TwoQubit(), OpConfig: isa.DefaultConfig(), Backend: be})
	ex := lower(t, pool, "SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP")
	ones := 0
	observe := func(_ int, m *Machine, runErr error) error {
		if runErr == nil {
			ones += m.Measurements()[0].Result
		}
		return runErr
	}
	err := pool.FanPlan(context.Background(), ex, nil, 1, 200, 2, observe)
	if err == nil || !strings.Contains(err.Error(), "Config.Backend") {
		t.Fatalf("2-worker fan-out over a shared backend: err = %v, want a Config.Backend error", err)
	}
	if ones != 0 {
		t.Fatalf("the refused fan-out observed %d shots", ones)
	}
	if err := pool.FanPlan(context.Background(), ex, nil, 1, 200, 1, observe); err != nil {
		t.Fatal(err)
	}
	if ones != 200 {
		t.Fatalf("%d of 200 shots read X|0> as 1", ones)
	}
}

// panicBackend is a chip whose Apply1 panics while armed. It offers
// neither specialized kernels nor Reseed, so every pooled machine takes
// the generic gate path and is rebuilt on checkout.
type panicBackend struct {
	quantum.Backend
	armed bool
}

func (b *panicBackend) Apply1(u quantum.Matrix2, q int, durNs float64) {
	if b.armed {
		panic("microwave driver on fire")
	}
	b.Backend.Apply1(u, q, durNs)
}

// A panic inside a fan-out worker becomes that fan-out's error, with
// the panic value and the panicking stack, instead of crashing the
// process; the pool keeps serving later fan-outs.
func TestFanPlanContainsPanics(t *testing.T) {
	be := &panicBackend{Backend: quantum.NewSVBackend(3, quantum.Ideal(), 1), armed: true}
	pool := NewPool(Config{Topo: topology.TwoQubit(), OpConfig: isa.DefaultConfig(), Backend: be})
	ex := lower(t, pool, "SMIS S0, {0}\nX S0\nMEASZ S0\nSTOP")
	// One worker: every machine of this pool shares the one backend.
	fan := func() (int, error) {
		ones := 0
		err := pool.FanPlan(context.Background(), ex, nil, 1, 4, 1,
			func(_ int, m *Machine, runErr error) error {
				if runErr == nil {
					ones += m.Measurements()[0].Result
				}
				return runErr
			})
		return ones, err
	}
	_, err := fan()
	if err == nil {
		t.Fatal("a panicking backend's fan-out returned no error")
	}
	for _, want := range []string{"microwave driver on fire", "(*panicBackend).Apply1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("fan-out error lacks %q:\n%v", want, err)
		}
	}
	be.armed = false
	ones, err := fan()
	if err != nil {
		t.Fatalf("fan-out after a contained panic: %v", err)
	}
	if ones != 4 {
		t.Fatalf("%d of 4 shots read X|0> as 1", ones)
	}
}
