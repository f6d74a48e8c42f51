package compiler

import (
	"fmt"

	"eqasm/internal/ir"
	"eqasm/internal/topology"
)

// This file implements the qubit mapping pass of the compiler backend
// (Fig. 1: "the compiler performs qubit mapping and scheduling"): virtual
// circuit qubits are placed onto physical chip qubits, and two-qubit
// gates between non-adjacent placements are routed by inserting SWAP
// chains (each SWAP decomposed into three CNOTs) along shortest paths of
// the coupling graph.

// PassMap is the topology-aware mapping pass. initial maps each virtual
// qubit to a distinct physical qubit; nil assigns virtual i to physical
// i. The pass rewrites the program's gates onto physical qubits,
// growing NumQubits to the chip size, and records the placement in
// Program.Layout. Two-qubit gates land on allowed pairs, using the
// reverse edge for the symmetric CZ when only that direction exists.
func PassMap(topo *topology.Topology, initial []int) Pass {
	return Pass{Name: "map", Run: func(p *ir.Program) error {
		return mapProgram(p, topo, initial)
	}}
}

func mapProgram(p *ir.Program, topo *topology.Topology, initial []int) error {
	if initial == nil {
		initial = make([]int, p.NumQubits)
		for i := range initial {
			initial[i] = i
		}
	}
	if len(initial) != p.NumQubits {
		return fmt.Errorf("compiler: placement covers %d of %d virtual qubits", len(initial), p.NumQubits)
	}
	place := make([]int, p.NumQubits) // virtual -> physical
	used := map[int]bool{}
	for v, ph := range initial {
		if ph < 0 || ph >= topo.NumQubits {
			return fmt.Errorf("compiler: virtual %d placed on physical %d outside the chip", v, ph)
		}
		if used[ph] {
			return fmt.Errorf("compiler: physical qubit %d used twice in the placement", ph)
		}
		used[ph] = true
		place[v] = ph
	}
	dist, next, err := shortestPaths(topo)
	if err != nil {
		return err
	}

	layout := &ir.Layout{Initial: append([]int(nil), initial...)}
	var mapped []ir.Gate
	emit := func(g ir.Gate) { mapped = append(mapped, g) }
	emitCNOT := func(a, b int, pos ir.Pos) error {
		if _, ok := topo.EdgeID(a, b); !ok {
			return fmt.Errorf("compiler: no directed pair (%d,%d) for CNOT", a, b)
		}
		emit(ir.Gate{Name: "CNOT", Qubits: []int{a, b}, Pos: pos})
		return nil
	}
	swap := func(a, b int, pos ir.Pos) error {
		// SWAP = CNOT(a,b) CNOT(b,a) CNOT(a,b); both directions exist on
		// every symmetric coupling map in this repository.
		if err := emitCNOT(a, b, pos); err != nil {
			return err
		}
		if err := emitCNOT(b, a, pos); err != nil {
			return err
		}
		if err := emitCNOT(a, b, pos); err != nil {
			return err
		}
		layout.SwapCount++
		return nil
	}
	phys2virt := map[int]int{}
	for v, ph := range place {
		phys2virt[ph] = v
	}

	for _, g := range p.Gates {
		if !g.IsTwoQubit() {
			ng := g
			ng.Qubits = []int{place[g.Qubits[0]]}
			emit(ng)
			continue
		}
		va, vb := g.Qubits[0], g.Qubits[1]
		// Route va's physical location toward vb along the shortest path.
		for dist[place[va]][place[vb]] > 1 {
			pa := place[va]
			step := next[pa][place[vb]]
			if step < 0 {
				return fmt.Errorf("compiler: physical qubits %d and %d are disconnected", pa, place[vb])
			}
			if err := swap(pa, step, g.Pos); err != nil {
				return err
			}
			// Update placements: whatever logical qubit sat on `step`
			// moves to `pa`.
			if other, ok := phys2virt[step]; ok {
				place[other] = pa
				phys2virt[pa] = other
			} else {
				delete(phys2virt, pa)
			}
			place[va] = step
			phys2virt[step] = va
		}
		pa, pb := place[va], place[vb]
		ng := g
		switch {
		case hasEdge(topo, pa, pb):
			ng.Qubits = []int{pa, pb}
		case hasEdge(topo, pb, pa) && symmetricGate(g.Name):
			ng.Qubits = []int{pb, pa}
		default:
			return gateErr(g, "compiler: adjacent pair (%d,%d) lacks a usable directed edge for %s", pa, pb, g.Name)
		}
		emit(ng)
	}
	layout.Final = append([]int(nil), place...)
	p.Name = p.Name + "-mapped"
	p.NumQubits = topo.NumQubits
	p.Gates = mapped
	p.Layout = layout
	return nil
}

func hasEdge(t *topology.Topology, a, b int) bool {
	_, ok := t.EdgeID(a, b)
	return ok
}

// symmetricGate reports operand symmetry (CZ is; CNOT is not).
func symmetricGate(name string) bool { return name == "CZ" }

// shortestPaths runs all-pairs BFS over the undirected coupling graph,
// returning hop distances and, for each (from, to), the first hop of one
// shortest path (-1 when unreachable).
func shortestPaths(t *topology.Topology) (dist [][]int, next [][]int, err error) {
	n := t.NumQubits
	dist = make([][]int, n)
	next = make([][]int, n)
	for s := 0; s < n; s++ {
		dist[s] = make([]int, n)
		next[s] = make([]int, n)
		for i := range dist[s] {
			dist[s][i] = -1
			next[s][i] = -1
		}
		dist[s][s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.Neighbors(u) {
				if dist[s][v] != -1 {
					continue
				}
				dist[s][v] = dist[s][u] + 1
				if u == s {
					next[s][v] = v
				} else {
					next[s][v] = next[s][u]
				}
				queue = append(queue, v)
			}
		}
	}
	// Unreachable pairs keep dist -1; routing through them fails lazily
	// (disconnected or unused qubits are legal on a chip).
	return dist, next, nil
}
