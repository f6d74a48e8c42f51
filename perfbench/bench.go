package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"eqasm"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	root     string
	// smoke sets the workload up once with a tenth of its warm-up, for
	// a quick check that every metric and correctness check works.
	smoke bool
}

// workload describes one benchmark workload: how many closed-loop
// callers drive it, and how it is set up.
type workload struct {
	name    string
	callers int
	// warmupOps is the per-caller op count run at the end of each set-up
	// to fill the machine pools and caches. It is a count, not a time, so
	// set-up measures a fixed amount of work.
	warmupOps int
	// setups is how many times one run sets the workload up; setup_s is
	// their median.
	setups int
	build  func(env *env) (instance, error)
}

// benchProcs is the GOMAXPROCS every run uses. On a shared two-core
// host a second P made runs swing: the served workload's goroutine
// hand-offs crossing cores moved shots/s by about 8% between identical
// runs, and the garbage collector's worker on the sibling core moved
// the local workloads' tail latency by about 12%; on one P both stay
// within a few percent.
const benchProcs = 1

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs one op for a caller, drawing its inputs from rng. A
	// returned error is a failed op; failed checks go to env.checkf.
	op(caller int, rng *rand.Rand) (opOut, error)
	// verify runs the checks that need the whole run's results, outside
	// the measured window.
	verify() error
	// probe times each layer's public functions from outside (traced
	// runs only).
	probe(rng *rand.Rand, lm metrics) error
	close()
}

var workloads = map[string]workload{
	"small_chip": {name: "small_chip", callers: 1, warmupOps: 100, setups: 5, build: buildSmallChip},
	"feedback":   {name: "feedback", callers: 1, warmupOps: 100, setups: 5, build: buildFeedback},
	"chain16":    {name: "chain16", callers: 1, warmupOps: 100, setups: 5, build: buildChain16},
	"served":     {name: "served", callers: 2, warmupOps: 1000, setups: 5, build: buildServed},
}

// env is what a workload sees of the run: the input seed, the
// repository root, and the check recorder.
type env struct {
	seed int64
	root string

	mu       sync.Mutex
	failures []string
}

// checkf records a failed correctness check.
func (e *env) checkf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.failures) < 20 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

func (e *env) correct() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.failures) == 0
}

// Streams of the seeded input generator: each phase and caller draws
// from its own stream, so the warm-up and the measured ops are the
// same at a given seed whatever the timing.
const (
	streamWarmup = iota + 1
	streamWindow
	streamTraced
	streamProbe
)

func (e *env) rng(stream, caller int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(e.seed), uint64(stream*64+caller)))
}

// drawSeed draws a positive simulator seed.
func drawSeed(rng *rand.Rand) int64 { return 1 + rng.Int64N(1<<48) }

// opOut is the accounting of one op (or, summed, of many).
type opOut struct {
	shots         int64
	feedbackShots int64
	stabShots     int64
	runs          int64
	// execNs sums Result.Duration; overheadNs sums each in-process
	// Simulator.Run's wall time minus its Result.Duration.
	execNs     int64
	overheadNs int64
	stats      eqasm.ExecStats
	// kernelApps sums the kernel applications the runs executed
	// (Result.GateProfile per shot times shots); fusedSites and
	// totalSites sum the fusion site counters the same way.
	kernelApps int64
	fusedSites int64
	totalSites int64
}

func (o *opOut) add(p opOut) {
	o.shots += p.shots
	o.feedbackShots += p.feedbackShots
	o.stabShots += p.stabShots
	o.runs += p.runs
	o.execNs += p.execNs
	o.overheadNs += p.overheadNs
	o.stats.Add(p.stats)
	o.kernelApps += p.kernelApps
	o.fusedSites += p.fusedSites
	o.totalSites += p.totalSites
}

// addResult accounts one finished run.
func (o *opOut) addResult(res *eqasm.Result, feedback bool) {
	n := int64(res.Shots)
	o.shots += n
	if feedback {
		o.feedbackShots += n
	}
	if res.Backend == eqasm.BackendStabilizer {
		o.stabShots += n
	}
	o.runs++
	o.execNs += res.Duration.Nanoseconds()
	o.stats.Add(res.TotalStats)
	for k, v := range res.GateProfile {
		switch k {
		case eqasm.ProfileFusionFused:
			o.fusedSites += int64(v) * n
		case eqasm.ProfileFusionTotal:
			o.totalSites += int64(v) * n
		case eqasm.ProfileFusionElided: // a site count, not a kernel
		default:
			o.kernelApps += int64(v) * n
		}
	}
}

// window is one measured stretch of closed-loop ops.
type window struct {
	lat       []time.Duration
	out       opOut
	attempted int64
	failed    int64
	elapsed   time.Duration
}

// drive runs the workload's callers concurrently. Each caller stops
// after ops ops (when ops > 0) or once d has elapsed.
func drive(inst instance, w workload, e *env, stream, ops int, d time.Duration) window {
	var (
		mu  sync.Mutex
		all window
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := e.rng(stream, c)
			var mine window
			for i := 0; ; i++ {
				if ops > 0 && i >= ops || ops == 0 && time.Since(start) >= d {
					break
				}
				t := time.Now()
				o, err := inst.op(c, rng)
				lat := time.Since(t)
				mine.attempted++
				if err != nil {
					mine.failed++
					e.checkf("op failed: %v", err)
					continue
				}
				mine.lat = append(mine.lat, lat)
				mine.out.add(o)
			}
			mu.Lock()
			all.lat = append(all.lat, mine.lat...)
			all.out.add(mine.out)
			all.attempted += mine.attempted
			all.failed += mine.failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	all.elapsed = time.Since(start)
	return all
}

// setUp builds the workload w.setups times and returns the last
// instance, the median set-up time, and the last warm-up's accounting.
// Each set-up builds the backends and servers, compiles and plans the
// workload's programs, and runs the fixed warm-up; the first is timed
// from process start.
func setUp(w workload, e *env) (instance, float64, window, error) {
	var (
		times []float64
		inst  instance
		warm  window
	)
	for i := 0; i < w.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = w.build(e); err != nil {
			return nil, 0, window{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		warm = drive(inst, w, e, streamWarmup, w.warmupOps, 0)
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), warm, nil
}

func run(cfg config, w io.Writer) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: small_chip, feedback, chain16, served)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	if cfg.smoke {
		wl.setups, wl.warmupOps = 1, max(1, wl.warmupOps/10)
	}
	e := &env{seed: cfg.seed, root: cfg.root}
	host := hostRecord()
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host %s\n", host)

	inst, setupS, warm, err := setUp(wl, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	d := time.Duration(cfg.seconds * float64(time.Second))

	rep := &report{Metrics: map[string]metric{}}
	if cfg.trace == 0 {
		win := drive(inst, wl, e, streamWindow, 0, d)
		if err := inst.verify(); err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed = win.attempted, win.failed
		endToEnd(rep.Metrics, win, setupS)
	} else {
		// Half the time untraced, half under the CPU profile: the
		// difference in shots/s is the tracing overhead.
		plain := drive(inst, wl, e, streamWindow, 0, d/2)
		before := readRuntime()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced := drive(inst, wl, e, streamTraced, 0, d/2)
		pprof.StopCPUProfile()
		after := readRuntime()
		if err := inst.verify(); err != nil {
			return nil, err
		}
		shares, err := layerShares(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		lm := metrics(rep.Metrics)
		perLayer(lm, traced, warm, shares, after.sub(before))
		lm.set("trace.overhead_frac", 1-rate(traced)/rate(plain), "fraction")
		if err := inst.probe(e.rng(streamProbe, 0), lm); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		rep.Attempted = plain.attempted + traced.attempted
		rep.Failed = plain.failed + traced.failed
		lm.set("ops_attempted", float64(rep.Attempted), "count")
		lm.set("ops_failed", float64(rep.Failed), "count")
	}
	rep.Correct = e.correct() && rep.Failed == 0
	for _, f := range e.failures {
		fmt.Fprintf(w, "check failed: %s\n", f)
	}
	printMetrics(w, rep.Metrics)
	return rep, nil
}

// metrics is a report's metric map with a setter that keeps every
// value a finite number.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func rate(win window) float64 { return ratio(float64(win.out.shots), win.elapsed.Seconds()) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func endToEnd(m metrics, win window, setupS float64) {
	m.set("shots_per_s", rate(win), "1/s")
	m.set("latency_p50_ms", ms(percentile(win.lat, 0.50)), "ms")
	m.set("latency_p99_ms", ms(quietP99(win.lat)), "ms")
	m.set("setup_s", setupS, "s")
	m.set("max_rss_mb", maxRSSMB(), "MB")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// p99Block is the op count of one tail block: its 99th percentile has
// ten samples beyond it.
const p99Block = 1000

// quietP99 is the 99th-percentile latency of the run's quietest block
// of p99Block consecutive ops (of the whole run when it holds fewer).
// Other tenants of a shared host slow ops in bursts: within one 20 s
// chain16 run the block tails ranged from 4.3 to 6.5 ms, which moved
// the whole-run p99 by over 20% between identical runs. Every block
// still carries the tail the program produces in every 1000 ops (garbage
// collection, allocation, queueing), so that tail shows here; a stall
// rarer than once per block does not.
func quietP99(lat []time.Duration) time.Duration {
	if len(lat) < p99Block {
		return percentile(lat, 0.99)
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i+p99Block <= len(lat); i += p99Block {
		best = min(best, percentile(lat[i:i+p99Block], 0.99))
	}
	return best
}

// percentile is the nearest-rank percentile of the samples.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
