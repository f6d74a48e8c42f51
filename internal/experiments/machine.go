package experiments

import (
	"eqasm/internal/asm"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/topology"
)

// newMachine builds the QuMA_v2 machine an experiment runs on: the
// two-qubit validation chip and the Section 5 gate set unless cfg names
// others.
func newMachine(cfg microarch.Config) (*microarch.Machine, error) {
	if cfg.Topo == nil {
		cfg.Topo = topology.TwoQubit()
	}
	if cfg.OpConfig == nil {
		cfg.OpConfig = isa.DefaultConfig()
	}
	return microarch.New(cfg)
}

// load assembles src under m's instruction-set context and uploads it.
func load(m *microarch.Machine, src string) error {
	cfg := m.Config()
	a := asm.New(cfg.OpConfig, cfg.Topo)
	a.Inst = cfg.Inst
	p, err := a.Assemble(src)
	if err != nil {
		return err
	}
	return m.LoadProgram(p)
}

// runSource uploads src and runs it once from the machine's current
// state.
func runSource(m *microarch.Machine, src string) error {
	if err := load(m, src); err != nil {
		return err
	}
	return m.Run()
}
