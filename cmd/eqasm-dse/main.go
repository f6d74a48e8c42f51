// Command eqasm-dse regenerates the Fig. 7 design-space exploration:
// instruction counts for the RB, IM and SR benchmarks across the ten
// architecture configurations and VLIW widths 1-4. With -circuit it
// also sweeps a user-provided circuit through the same grid —
// bring-your-own-benchmark over the identical counting pipeline. The
// circuit file is cQASM (.cq/.cqasm) or OpenQASM 2.0 (.qasm), chosen
// by extension.
//
// Usage:
//
//	eqasm-dse [-cliffords N] [-headline]
//	eqasm-dse -circuit workload.cq
//	eqasm-dse -circuit workload.qasm
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"eqasm/internal/benchmarks"
	"eqasm/internal/compiler"
	"eqasm/internal/cqasm"
	"eqasm/internal/dse"
	"eqasm/internal/ir"
	"eqasm/internal/openqasm"
)

func main() {
	cliffords := flag.Int("cliffords", 4096, "Cliffords per qubit in the RB benchmark")
	headline := flag.Bool("headline", false, "also print the paper's quoted comparisons")
	profile := flag.Bool("profile", false, "also print benchmark parallelism and interval profiles")
	qec := flag.Bool("qec", false, "also print the QEC syndrome-extraction SOMQ benefit (Section 4.2 prediction)")
	circuitPath := flag.String("circuit", "", "sweep a circuit file (.cq/.cqasm cQASM or .qasm OpenQASM) through the configuration grid")
	flag.Parse()

	if *circuitPath != "" {
		data, err := os.ReadFile(*circuitPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eqasm-dse:", err)
			os.Exit(1)
		}
		// ".cqasm" also ends in ".qasm": check the cQASM extensions first.
		var p *ir.Program
		if !strings.HasSuffix(*circuitPath, ".cq") && !strings.HasSuffix(*circuitPath, ".cqasm") &&
			strings.HasSuffix(*circuitPath, ".qasm") {
			p, err = openqasm.Parse(string(data))
		} else {
			p, err = cqasm.Parse(string(data))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "eqasm-dse:", err)
			os.Exit(1)
		}
		name := filepath.Base(*circuitPath)
		table, err := dse.ForCircuit(name, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eqasm-dse:", err)
			os.Exit(1)
		}
		fmt.Print(table.Render())
		fmt.Printf("%s: %d gates, gates/point=%.2f, length=%d cycles\n",
			name, len(p.Gates), gatesPerPoint(table, name), p.Length)
		return
	}

	if *qec {
		s := benchmarks.QEC(20)
		err := (&compiler.Pipeline{}).Append(compiler.PassValidate(), compiler.PassScheduleASAP()).Run(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eqasm-dse:", err)
			os.Exit(1)
		}
		fmt.Println("QEC syndrome extraction on surface-17 (20 cycles):")
		for _, w := range []int{1, 2} {
			plain, err1 := compiler.Count(s, compiler.Config5.WithWidth(w))
			somq, err2 := compiler.Count(s, compiler.Config9.WithWidth(w))
			if err1 != nil || err2 != nil {
				fmt.Fprintln(os.Stderr, "eqasm-dse:", err1, err2)
				os.Exit(1)
			}
			fmt.Printf("  w=%d: %d -> %d instructions with SOMQ (%.0f%% reduction)\n",
				w, plain.Instructions, somq.Instructions,
				100*(1-float64(somq.Instructions)/float64(plain.Instructions)))
		}
		fmt.Println()
	}

	table, err := dse.Run(*cliffords)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eqasm-dse:", err)
		os.Exit(1)
	}
	fmt.Print(table.Render())
	if *headline {
		fmt.Println("-- paper comparisons --")
		for _, line := range table.Headline() {
			fmt.Println(line)
		}
	}
	if *profile {
		fmt.Println("-- benchmark profiles --")
		for _, name := range []string{"RB", "IM", "SR"} {
			s := table.Schedules[name]
			fmt.Printf("%s: gates/point=%.2f length=%d cycles\n", name, gatesPerPoint(table, name), s.Length)
			ih := compiler.IntervalHistogram(s)
			fmt.Printf("  intervals:")
			for _, k := range slices.Sorted(maps.Keys(ih)) {
				fmt.Printf(" %d:%d", k, ih[k])
			}
			fmt.Println()
		}
	}
}

// gatesPerPoint reads a benchmark's mean gates per timing point off its
// Config1 w=1 baseline count.
func gatesPerPoint(t *dse.Table, name string) float64 {
	c, _ := t.Lookup(name, "Config1", 1)
	return c.Result.GatesPerPoint()
}
