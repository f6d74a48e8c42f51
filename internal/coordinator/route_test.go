package coordinator

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eqasm"
	"eqasm/internal/service"
)

func testWorkers(n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{url: fmt.Sprintf("http://10.0.0.%d:8080", i+1)}
	}
	return ws
}

func urls(ws []*worker) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.url
	}
	return out
}

// The affinity key is a pure function of the source text, so a
// resubmitted program lands where its compiled form is cached.
func TestRouteKeyStable(t *testing.T) {
	progs := service.SmokePrograms()
	bell := progs["bell"]
	if a, b := routeKey(bell), routeKey(strings.Clone(bell)); a != b {
		t.Fatalf("same source, different keys: %q vs %q", a, b)
	}
	if routeKey(bell) == routeKey(progs["flip"]) {
		t.Fatal("different sources share a route key")
	}
}

// Rendezvous ranking depends only on the key and the worker set, never
// on the order the pool lists its workers in.
func TestRankIgnoresInputOrder(t *testing.T) {
	ws := testWorkers(5)
	rng := rand.New(rand.NewSource(1))
	for _, src := range service.SmokePrograms() {
		key := routeKey(src)
		want := urls(rank(key, ws))
		for trial := 0; trial < 10; trial++ {
			shuffled := append([]*worker(nil), ws...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := urls(rank(key, shuffled)); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("key %.16s: rank %v for shuffled input, %v for the pool order", key, got, want)
			}
		}
		for i := 1; i < len(want); i++ {
			if score(key, want[i-1]) < score(key, want[i]) {
				t.Fatalf("key %.16s: rank %v is not in descending score order", key, want)
			}
		}
	}
	// Ranking copies: the caller's slice keeps its order.
	if got := urls(ws); got[0] != "http://10.0.0.1:8080" || got[4] != "http://10.0.0.5:8080" {
		t.Fatalf("rank reordered its input: %v", got)
	}
}

// A worker at its in-flight limit loses its keys to the next ranked
// worker that has room; when every worker is loaded, affinity wins.
func TestPickSpillsPastLoadedWorkers(t *testing.T) {
	c := &Coordinator{cfg: Config{SpillHighWater: 0.75}}
	ws := testWorkers(3)
	for _, w := range ws {
		w.stats = eqasm.ServiceStats{QueueCapacity: 8}
	}
	key := routeKey(service.SmokePrograms()["bell"])
	ranked := rank(key, ws)

	if got := c.pick(key, ws); got != ranked[0] {
		t.Fatalf("idle pool: picked %s, want the top-ranked %s", got.url, ranked[0].url)
	}
	// Six of eight slots (the 0.75 high-water mark) in flight locally,
	// though the last probe still reports an empty queue.
	ranked[0].inflight.Store(6)
	if !c.loaded(ranked[0]) {
		t.Fatal("worker at its in-flight limit not reported loaded")
	}
	if got := c.pick(key, ws); got != ranked[1] {
		t.Fatalf("top worker loaded: picked %s, want the second-ranked %s", got.url, ranked[1].url)
	}
	// The probe-reported queue depth counts as well.
	ranked[1].stats.QueueDepth = 7
	if got := c.pick(key, ws); got != ranked[2] {
		t.Fatalf("two workers loaded: picked %s, want the third-ranked %s", got.url, ranked[2].url)
	}
	if n := c.metrics.spills.Load(); n != 2 {
		t.Fatalf("spills = %d, want 2", n)
	}
	ranked[2].inflight.Store(8)
	if got := c.pick(key, ws); got != ranked[0] {
		t.Fatalf("whole pool loaded: picked %s, want the top-ranked %s", got.url, ranked[0].url)
	}
	// A worker that has never been probed (no capacity known) is never
	// judged loaded.
	if c.loaded(&worker{url: "http://10.0.0.9:8080"}) {
		t.Fatal("unprobed worker reported loaded")
	}
}
