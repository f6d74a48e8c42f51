package coordinator

import (
	"context"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eqasm"
	"eqasm/internal/service"
)

// worker is one eqasm-serve instance in the pool: its client link,
// probe-driven health, and the coordinator's own inflight accounting.
type worker struct {
	url    string
	client *eqasm.Client

	healthy  atomic.Bool
	draining atomic.Bool
	inflight atomic.Int64

	// stats is the last successful probe, zeroed when a probe fails.
	statsMu sync.Mutex
	stats   eqasm.ServiceStats
}

// healthLoop probes the pool every HealthInterval until Close.
func (c *Coordinator) healthLoop() {
	defer c.healthWG.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopHealth:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probe(w)
		}(w)
	}
	wg.Wait()
}

// probe samples one worker's /v1/stats: reachable and not draining
// means eligible for new work, and the load snapshot feeds spill
// decisions.
func (c *Coordinator) probe(w *worker) {
	timeout := c.cfg.HealthInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	st, err := w.client.Stats(ctx)
	cancel()
	if err != nil {
		w.healthy.Store(false)
		w.statsMu.Lock()
		w.stats = eqasm.ServiceStats{}
		w.statsMu.Unlock()
		return
	}
	w.statsMu.Lock()
	w.stats = st
	w.statsMu.Unlock()
	w.draining.Store(st.Draining)
	w.healthy.Store(!st.Draining)
}

// eligible is the routable subset of the pool: workers whose last
// probe succeeded and that are not draining.
func (c *Coordinator) eligible() []*worker {
	ws := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		if w.healthy.Load() && !w.draining.Load() {
			ws = append(ws, w)
		}
	}
	return ws
}

// routeKey is the affinity hash of a request: the same content hash
// ("source:" + sha256) the workers key their program caches on, so
// routing affinity and cache warmth agree by construction.
func routeKey(src string) string {
	return service.RequestSpec{Source: src}.CacheKey()
}

// score is rendezvous (highest-random-weight) hashing: each worker's
// weight for a key is a hash of key and worker identity together, and
// the key routes to the maximum. Adding or removing one worker only
// moves the keys that worker won — the affinity-preserving property
// that makes pool changes cheap for cache warmth.
func score(key, url string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	h.Write([]byte{0})
	io.WriteString(h, url)
	return h.Sum64()
}

// rank orders workers by descending rendezvous score for key, ties
// broken by URL for determinism.
func rank(key string, ws []*worker) []*worker {
	ranked := make([]*worker, len(ws))
	copy(ranked, ws)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := score(key, ranked[i].url), score(key, ranked[j].url)
		if si != sj {
			return si > sj
		}
		return ranked[i].url < ranked[j].url
	})
	return ranked
}

// pick routes one key: the top-ranked eligible worker, unless it is
// past the spill high-water mark and a less-loaded worker exists —
// then affinity yields to load.
func (c *Coordinator) pick(key string, ws []*worker) *worker {
	ranked := rank(key, ws)
	top := ranked[0]
	if len(ranked) == 1 || !c.loaded(top) {
		return top
	}
	for _, w := range ranked[1:] {
		if !c.loaded(w) {
			c.metrics.spills.Add(1)
			return w
		}
	}
	return top
}

// loaded reports a worker past the spill high-water mark, judged by
// the larger of its last-probed queue depth and the coordinator's own
// inflight count toward it (probes lag; local dispatches do not).
func (c *Coordinator) loaded(w *worker) bool {
	w.statsMu.Lock()
	depth, capacity := int64(w.stats.QueueDepth), w.stats.QueueCapacity
	w.statsMu.Unlock()
	if capacity <= 0 {
		return false
	}
	if inf := w.inflight.Load(); inf > depth {
		depth = inf
	}
	return float64(depth) >= c.cfg.SpillHighWater*float64(capacity)
}

// route groups the outstanding request indices of p by target worker,
// or nil when no worker is eligible.
func (c *Coordinator) route(p *pending, outstanding []int) map[*worker][]int {
	ws := c.eligible()
	if len(ws) == 0 {
		return nil
	}
	groups := make(map[*worker][]int)
	for _, i := range outstanding {
		w := c.pick(p.keys[i], ws)
		groups[w] = append(groups[w], i)
	}
	return groups
}

// RouteURL reports which worker p's content hash maps to when the
// whole pool is eligible — the introspection hook for reasoning about
// (and testing) placement.
func (c *Coordinator) RouteURL(p *eqasm.Program) (string, error) {
	src, err := p.WireSource()
	if err != nil {
		return "", err
	}
	return rank(routeKey(src), c.workers)[0].url, nil
}
