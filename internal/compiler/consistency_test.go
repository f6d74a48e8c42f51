package compiler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eqasm/internal/ir"
	"eqasm/internal/isa"
)

// The Fig. 7 counting model and the executable emitter must agree: under
// the adopted instantiation (Config 9, w=2, SOMQ), the number of bundle
// words and QWAITs the emitter produces equals what Count predicts
// (SMIS/SMIT and STOP excluded, per the paper's analysis assumption that
// target registers are free).
func TestCountMatchesEmitter(t *testing.T) {
	cfg := twoQubit(true)
	opts := Config9.WithWidth(2)

	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%40 + 2
		c := &ir.Program{NumQubits: 3}
		names := []string{"X", "Y", "X90", "Ym90", "H"}
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				c.Gates = append(c.Gates, ir.Gate{Name: "CZ", Qubits: []int{2, 0}})
			case 1:
				c.Gates = append(c.Gates, ir.Gate{Name: "MEASZ",
					Qubits: []int{[]int{0, 2}[rng.Intn(2)]}, Measure: true})
			default:
				c.Gates = append(c.Gates, ir.Gate{Name: names[rng.Intn(len(names))],
					Qubits: []int{[]int{0, 2}[rng.Intn(2)]}})
			}
		}
		prog, err := compileErr(c, cfg)
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		counted, err := Count(c, opts)
		if err != nil {
			return false
		}
		var bundles, qwaits int64
		for _, ins := range prog.Instrs {
			switch ins.Op {
			case isa.OpBundle:
				bundles++
			case isa.OpQWAIT:
				qwaits++
			}
		}
		if bundles != counted.BundleWords || qwaits != counted.QWaits {
			t.Logf("seed %d: emitter %d bundles / %d qwaits, counter %d / %d",
				seed, bundles, qwaits, counted.BundleWords, counted.QWaits)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
