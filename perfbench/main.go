// Command perfbench is the repository benchmark: one command that
// measures the eQASM stack end to end and, in a separate traced run,
// layer by layer. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is a closed loop driven from one process on one P
// (GOMAXPROCS 1, see benchProcs): each caller issues its next op only
// after the previous one returned. All inputs — the per-op simulator
// seeds, the served request mix, the cold circuits and the theta
// stream — derive from --seed.
//
//	small_chip  one caller; an op is one 500-shot Simulator.Run of
//	            bell.eqasm (twoqubit) and one of the QEC syndrome cycle
//	            qec.qasm compiled for surface7, noiseless, backend auto,
//	            Workers 1. Feedback-free Clifford programs on tiny chips:
//	            the microarch timeline dominates, the kernels are
//	            negligible.
//	feedback    the same loop under the calibrated noise model (forcing
//	            the state vector), an op being one 333-shot run each of
//	            active_reset, cfc and loop: the fast-conditional,
//	            FMR->CMP->BR and loop paths plus the noise kernels. A
//	            replay of shot-invariant programs must leave this
//	            workload unchanged.
//	chain16     one caller; rz_chain16.eqasm on chain16, one shot per op
//	            on the fused state vector: the 2^16-amplitude kernels
//	            dominate and the timeline is small.
//	served      two eqasm.Client callers against an in-process service +
//	            httpapi stack on loopback, 64 shots per request; 15/16
//	            hot requests (bell, active_reset, or rz_sweep.qasm with a
//	            fresh theta) and 1/16 cold seed-generated circuits of
//	            200-399 gates the client compiles. Wire, JSON, queue and
//	            cache work dominate the hot requests; the front end,
//	            compiler and the cold circuits' shots sit on the tail.
//
// With --trace 0 the last line of standard output reports the
// end-to-end metrics: shots_per_s, latency_p50_ms, latency_p99_ms (see
// quietP99), setup_s (the median of five set-ups, each building the
// backends, compiling and planning the programs and running a fixed
// warm-up, the first timed from process start) and max_rss_mb (VmHWM).
// With --trace 1 it reports the per-layer metrics: the run measures half
// its time untraced and half under a CPU profile grouped by package,
// then times each layer's public functions from outside. Every op is
// checked; a failed check makes the run report "correct": false and
// exit 1. --smoke makes a brief run for the smoke test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// processStart is the time main began: the first set-up is measured
// from here, so set-up time covers process start-up too.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: small_chip, feedback, chain16 or served")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "repository root (where testdata/ lives)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "brief run: one set-up with a tenth of the warm-up")
	flag.Parse()

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printMetrics writes one human-readable line per metric, sorted.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
