// Command eqasm-retarget converts an eQASM program between platforms by
// removing its timing information, remapping qubits, rescheduling and
// re-emitting — the cross-platform path the paper's conclusion sketches:
// "by removing the timing information in the eQASM description, the
// quantum semantics of the program can be kept and further converted
// into another executable format targeting another hardware platform."
//
// Usage:
//
//	eqasm-retarget -from twoqubit -to surface17 -map 0:0,2:9 prog.eqasm
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"eqasm/internal/asm"
	"eqasm/internal/compiler"
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

func main() {
	from := flag.String("from", "twoqubit", "source topology: twoqubit, surface7, surface17")
	to := flag.String("to", "surface17", "destination topology")
	mapping := flag.String("map", "", "qubit mapping as src:dst pairs, e.g. 0:0,2:9")
	initWait := flag.Int("initwait", 0, "initialisation wait (cycles) for the emitted program")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "eqasm-retarget: exactly one input file required")
		os.Exit(2)
	}
	srcTopo, srcInst := pick(*from)
	dstTopo, dstInst := pick(*to)
	cfg := isa.DefaultConfig()

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	a := asm.New(cfg, srcTopo)
	a.Inst = srcInst
	prog, err := a.Assemble(string(data))
	if err != nil {
		fatal(err)
	}
	qmap, err := parseMapping(*mapping)
	if err != nil {
		fatal(err)
	}
	arch := compiler.DefaultArch(dstInst)
	arch.SOMQ = true
	dst := compiler.PipelineConfig{Config: cfg, Topo: dstTopo, Inst: dstInst, Arch: arch,
		InitWaitCycles: *initWait, AppendStop: true}
	out, err := compiler.Retarget(prog, cfg, srcTopo, dst, qmap)
	if err != nil {
		fatal(err)
	}
	d := asm.NewDisassembler(cfg, dstTopo)
	d.Inst = dstInst
	words, err := dstInst.EncodeProgram(out, cfg)
	if err != nil {
		fatal(err)
	}
	text, err := d.Disassemble(words)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# retargeted %s -> %s (%d instructions)\n", *from, *to, len(words))
	fmt.Print(text)
}

func pick(name string) (*topology.Topology, isa.Instantiation) {
	switch name {
	case "twoqubit":
		return topology.TwoQubit(), isa.Default
	case "surface7":
		return topology.Surface7(), isa.Default
	case "surface17":
		return topology.Surface17(), isa.Surface17Instantiation()
	case "iontrap5":
		return topology.IonTrap5(), isa.IonTrap5Instantiation()
	}
	fmt.Fprintf(os.Stderr, "eqasm-retarget: unknown topology %q\n", name)
	os.Exit(2)
	return nil, isa.Instantiation{}
}

func parseMapping(s string) (map[int]int, error) {
	out := map[int]int{}
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		parts := strings.Split(pair, ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed mapping entry %q", pair)
		}
		src, err1 := strconv.Atoi(parts[0])
		dst, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("malformed mapping entry %q", pair)
		}
		out[src] = dst
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eqasm-retarget:", err)
	os.Exit(1)
}
