package microarch_test

import (
	"fmt"
	"log"

	"eqasm/internal/asm"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/topology"
)

// The smallest end-to-end flow: assemble an eQASM program under the
// machine's instruction-set context, execute it on the QuMA_v2 model,
// read the measurement result.
func ExampleMachine() {
	topo, cfg := topology.TwoQubit(), isa.DefaultConfig()
	m, err := microarch.New(microarch.Config{Topo: topo, OpConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}
	prog, err := asm.New(cfg, topo).Assemble(`
SMIS S0, {0}
X S0
MEASZ S0
STOP
`)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("qubit 0 measured: %d\n", m.Measurements()[0].Result)
	// Output: qubit 0 measured: 1
}

// Programs can also be assembled to the 32-bit binary of Fig. 8 and
// uploaded as an instruction-memory image.
func ExampleMachine_LoadBinary() {
	topo, cfg := topology.Surface7(), isa.DefaultConfig()
	words, err := asm.New(cfg, topo).AssembleToBinary("QWAIT 10000\nSMIS S0, {0}\nX S0\nMEASZ S0\nSTOP")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%08x ... %08x\n", words[0], words[len(words)-1])
	m, err := microarch.New(microarch.Config{Topo: topo, OpConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadBinary(words); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("qubit 0 measured: %d\n", m.Measurements()[0].Result)
	// Output:
	// 20002710 ... 02000000
	// qubit 0 measured: 1
}
