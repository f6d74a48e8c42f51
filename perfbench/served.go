package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eqasm"
	"eqasm/internal/httpapi"
	"eqasm/internal/service"
)

const (
	servedCallers = 2
	servedShots   = 64
	// servedInitWait is the initialisation idle the service compiles
	// circuits with by default; the client compiles with the same, so a
	// circuit compiled on either side is the same program.
	servedInitWait = 10000
	// servedSplit is the number of shot batches the service cuts one
	// 64-shot request into (its default 32-shot batches, at the request
	// seed plus i*SeedStride). A local Simulator run with this many
	// workers splits identically, so its result must be bit-identical.
	servedSplit = 2
)

// serveStack is an in-process eqasm-serve: the service behind the
// httpapi handler on a loopback listener.
type serveStack struct {
	svc  *service.Service
	srv  *http.Server
	done chan struct{} // closed when Serve returns
	tr   *http.Transport
	wire *wireCounter
	url  string
}

func startStack(machine []eqasm.Option, workers int) (*serveStack, error) {
	svc, err := service.New(service.Config{Workers: workers, Machine: machine})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close() // never fails
		return nil, err
	}
	st := &serveStack{
		svc:  svc,
		srv:  &http.Server{Handler: httpapi.New(svc).Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		tr:   &http.Transport{MaxIdleConnsPerHost: 8},
		url:  "http://" + ln.Addr().String(),
	}
	st.wire = &wireCounter{rt: st.tr}
	go func() {
		defer close(st.done)
		_ = st.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return st, nil
}

func (st *serveStack) client() *eqasm.Client {
	return eqasm.NewClient(st.url, eqasm.WithHTTPClient(&http.Client{Transport: st.wire}))
}

// close stops the listener, waits for Serve to return, and stops the
// service's workers.
func (st *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.srv.Shutdown(ctx); err != nil {
		_ = st.srv.Close() // force: in-flight requests are abandoned
	}
	<-st.done
	st.tr.CloseIdleConnections()
	_ = st.svc.Close() // never fails
}

// wireCounter counts the JSON body bytes a client sends and receives.
type wireCounter struct {
	rt    http.RoundTripper
	bytes atomic.Int64
}

func (w *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		w.bytes.Add(req.ContentLength)
	}
	resp, err := w.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// servedInstance is the served workload: two closed-loop Client callers
// against one in-process serving stack.
type servedInstance struct {
	env     *env
	stack   *serveStack
	clients []*eqasm.Client

	bellSrc, resetSrc, sweepSrc string
	bell, reset, sweep          *eqasm.Program

	mu      sync.Mutex
	records []servedRecord // every answered request, checked by verify
}

// servedRecord is one answered request, kept for verify: the request
// without its program, and a digest of the wire result.
type servedRecord struct {
	req    servedReq
	digest uint64
}

// servedReq is one drawn request.
type servedReq struct {
	name string
	prog *eqasm.Program
	// cold seeds a cold request's circuit generator, so a record can
	// rebuild the circuit instead of keeping it.
	cold     uint64
	seed     int64
	theta    float64
	feedback bool
}

func (r servedReq) params() map[string]float64 {
	if r.name != "rz_sweep" {
		return nil
	}
	return map[string]float64{"theta": r.theta}
}

func buildServed(e *env) (instance, error) {
	s := &servedInstance{env: e}
	var err error
	if s.bellSrc, err = e.read("testdata/programs/bell.eqasm"); err != nil {
		return nil, err
	}
	if s.resetSrc, err = e.read("testdata/programs/active_reset.eqasm"); err != nil {
		return nil, err
	}
	if s.sweepSrc, err = e.read("testdata/circuits/rz_sweep.qasm"); err != nil {
		return nil, err
	}
	chip := eqasm.WithTopology("twoqubit")
	if s.bell, err = eqasm.Assemble(s.bellSrc, chip); err != nil {
		return nil, err
	}
	if s.reset, err = eqasm.Assemble(s.resetSrc, chip); err != nil {
		return nil, err
	}
	if s.sweep, err = compileServed(s.sweepSrc); err != nil {
		return nil, err
	}
	if s.stack, err = startStack(servedMachine(), servedCallers); err != nil {
		return nil, err
	}
	for i := 0; i < servedCallers; i++ {
		s.clients = append(s.clients, s.stack.client())
	}
	return s, nil
}

func compileServed(src string) (*eqasm.Program, error) {
	return eqasm.CompileOpenQASM(src, eqasm.WithTopology("twoqubit"), eqasm.WithInitWaitCycles(servedInitWait))
}

func servedMachine() []eqasm.Option {
	return []eqasm.Option{eqasm.WithTopology("twoqubit"), eqasm.WithSeed(1)}
}

// draw picks the next request: 1/16 cold (a fresh seed-generated
// circuit the client compiles), else bell, active_reset or the rz_sweep
// ansatz at a fresh theta, 5/16 each.
func (s *servedInstance) draw(rng *rand.Rand) (servedReq, error) {
	k := rng.IntN(16)
	r := servedReq{seed: drawSeed(rng)}
	switch {
	case k == 0:
		r.name, r.cold = "cold", rng.Uint64()
		p, err := compileServed(coldCircuit(r.cold))
		if err != nil {
			return r, fmt.Errorf("cold circuit %d: %w", r.cold, err)
		}
		r.prog = p
	case k <= 5:
		r.name, r.prog = "bell", s.bell
	case k <= 10:
		r.name, r.prog, r.feedback = "active_reset", s.reset, true
	default:
		r.name, r.prog, r.theta = "rz_sweep", s.sweep, rng.Float64()*2*math.Pi
	}
	return r, nil
}

// coldCircuit generates a unique OpenQASM circuit of 200-399 gates on
// the twoqubit chip's coupled pair (qubits 0 and 2). Rotation angles
// come from a 256-point grid: the plan builder memoizes the Clifford
// classification of every distinct rotation matrix for the life of the
// process, so unbounded distinct angles would make the process's memory
// grow with the number of ops rather than reflect its steady state.
func coldCircuit(seed uint64) string {
	rng := rand.New(rand.NewPCG(seed, 0))
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[2];\n")
	fixed := []string{"h", "x", "y", "z", "s", "sdg", "t", "tdg"}
	rot := []string{"rx", "ry", "rz"}
	for n := 200 + rng.IntN(200); n > 0; n-- {
		q := 2 * rng.IntN(2)
		switch k := rng.IntN(10); {
		case k < 5:
			fmt.Fprintf(&b, "%s q[%d];\n", fixed[rng.IntN(len(fixed))], q)
		case k < 8:
			fmt.Fprintf(&b, "%s(%.6f) q[%d];\n", rot[rng.IntN(len(rot))], float64(rng.IntN(256))*math.Pi/128, q)
		case k < 9:
			fmt.Fprintf(&b, "cx q[%d], q[%d];\n", q, 2-q)
		default:
			b.WriteString("cz q[0], q[2];\n")
		}
	}
	b.WriteString("measure q[0] -> c[0];\nmeasure q[2] -> c[1];\n")
	return b.String()
}

var servedChecks = map[string]func(*eqasm.Result) error{
	"bell":         onlyKeys("00", "11"),
	"active_reset": onlyKeys("0"),
}

func (s *servedInstance) op(caller int, rng *rand.Rand) (opOut, error) {
	var o opOut
	r, err := s.draw(rng)
	if err != nil {
		return o, err
	}
	t := time.Now()
	res, err := s.clients[caller].Run(context.Background(), r.prog,
		eqasm.RunOptions{Shots: servedShots, Seed: r.seed, Params: r.params()})
	wall := time.Since(t)
	if err != nil {
		return o, fmt.Errorf("%s seed %d: %w", r.name, r.seed, err)
	}
	if check := servedChecks[r.name]; check != nil {
		if err := check(res); err != nil {
			s.env.checkf("served %s seed %d: %v", r.name, r.seed, err)
		}
	}
	o.addResult(res, r.feedback)
	o.overheadNs = (wall - res.Duration).Nanoseconds()
	r.prog = nil // verify rebuilds it
	rec := servedRecord{req: r, digest: digest(res)}
	s.mu.Lock()
	s.records = append(s.records, rec)
	s.mu.Unlock()
	return o, nil
}

// digest hashes everything a run reports that must be bit-identical
// between the wire and a local run: shots, histogram (fmt prints maps
// in key order), summed counters and backend.
func digest(res *eqasm.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %v %+v %s", res.Shots, res.Histogram, res.TotalStats, res.Backend)
	return h.Sum64()
}

// verify reruns every answered request on a local Simulator at the same
// seed: the served result must be bit-identical.
func (s *servedInstance) verify() error {
	s.mu.Lock()
	recs := s.records
	s.records = nil
	s.mu.Unlock()
	sim, err := eqasm.NewSimulator(eqasm.WithTopology("twoqubit"))
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for w := 0; w < servedCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += servedCallers {
				if err := s.verifyOne(sim, recs[i]); err != nil {
					s.env.checkf("served %s seed %d: %v", recs[i].req.name, recs[i].req.seed, err)
				}
			}
		}(w)
	}
	wg.Wait()
	return nil
}

func (s *servedInstance) verifyOne(sim *eqasm.Simulator, rec servedRecord) error {
	r := rec.req
	switch r.name {
	case "bell":
		r.prog = s.bell
	case "active_reset":
		r.prog = s.reset
	case "rz_sweep":
		r.prog = s.sweep
	default:
		p, err := compileServed(coldCircuit(r.cold))
		if err != nil {
			return err
		}
		r.prog = p
	}
	want, err := sim.Run(context.Background(), r.prog, eqasm.RunOptions{
		Shots: servedShots, Seed: r.seed, Workers: servedSplit, Params: r.params()})
	if err != nil {
		return fmt.Errorf("local run: %w", err)
	}
	if digest(want) != rec.digest {
		return fmt.Errorf("wire result differs from the local run %d shots %v %+v on %s",
			want.Shots, want.Histogram, want.TotalStats, want.Backend)
	}
	return nil
}

func (s *servedInstance) probe(rng *rand.Rand, m metrics) error {
	front := frontInputs{
		qasm:  []chipSource{{"twoqubit", s.sweepSrc}},
		eqasm: []chipSource{{"twoqubit", s.bellSrc}, {"twoqubit", s.resetSrc}},
		param: chipSource{"twoqubit", s.sweepSrc},
	}
	for i := 0; i < 3; i++ {
		front.qasm = append(front.qasm, chipSource{"twoqubit", coldCircuit(rng.Uint64())})
	}
	if err := probeFront(m, s.env, front, rng); err != nil {
		return err
	}
	return probeService(m, serviceProbe{
		machine: servedMachine(),
		draw: func(rng *rand.Rand) (probeReq, error) {
			r, err := s.draw(rng)
			var q string
			switch r.name {
			case "cold":
				q = coldCircuit(r.cold)
			case "rz_sweep":
				q = s.sweepSrc
			}
			return probeReq{prog: r.prog, qasm: q, shots: servedShots, params: r.params()}, err
		},
	}, rng)
}

func (s *servedInstance) close() { s.stack.close() }
