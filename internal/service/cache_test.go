package service

import (
	"fmt"
	"testing"

	"eqasm"
)

func TestProgramCacheLRUEviction(t *testing.T) {
	c := NewProgramCache(2)
	progs := make([]*eqasm.Program, 3)
	for i := range progs {
		progs[i] = &eqasm.Program{}
		c.Put(fmt.Sprintf("k%d", i), progs[i])
	}
	// k0 is the oldest and must be gone; k1 and k2 remain.
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 survived past capacity")
	}
	for i := 1; i < 3; i++ {
		p, ok := c.Get(fmt.Sprintf("k%d", i))
		if !ok || p != progs[i] {
			t.Fatalf("k%d lost or replaced", i)
		}
	}
	hits, misses, entries := c.Stats()
	if hits != 2 || misses != 1 || entries != 2 {
		t.Fatalf("stats = %d/%d/%d, want 2/1/2", hits, misses, entries)
	}
}

func TestProgramCacheTouchRefreshes(t *testing.T) {
	c := NewProgramCache(2)
	c.Put("a", &eqasm.Program{})
	c.Put("b", &eqasm.Program{})
	c.Get("a")                   // a becomes most recent
	c.Put("c", &eqasm.Program{}) // evicts b, not a
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry kept")
	}
}

func TestProgramCacheDuplicatePutKeepsResident(t *testing.T) {
	c := NewProgramCache(2)
	first := &eqasm.Program{}
	c.Put("k", first)
	c.Put("k", &eqasm.Program{}) // concurrent-assembly race: resident wins
	p, ok := c.Get("k")
	if !ok || p != first {
		t.Fatal("duplicate put replaced the resident program")
	}
	if _, _, entries := c.Stats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
}

func TestCacheKeyDistinguishesContent(t *testing.T) {
	k1 := RequestSpec{Source: "X S0\nSTOP"}.CacheKey()
	k2 := RequestSpec{Source: "Y S0\nSTOP"}.CacheKey()
	k3 := RequestSpec{Source: "X S0\nSTOP"}.CacheKey()
	if k1 == k2 {
		t.Fatal("different sources share a key")
	}
	if k1 != k3 {
		t.Fatal("identical sources got different keys")
	}
}
