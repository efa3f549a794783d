package dag

import "fmt"

// ErrTooManyPaths is returned by AllPaths when the source→sink path
// count exceeds the caller's limit; deep general-structure networks
// (a chain of Inception modules has branch^modules paths) must use
// Decompose instead.
var ErrTooManyPaths = fmt.Errorf("dag: path count exceeds limit")

// AllPaths enumerates every source→sink path, the exact node
// duplication conversion of Fig. 9: a node with out-degree d appears
// on d downstream path families. Paths are returned as node-ID slices
// in topological order. limit bounds the number of paths (0 means 1024).
func (g *Graph) AllPaths(limit int) ([][]int, error) {
	g.mustFinalized()
	if limit <= 0 {
		limit = 1024
	}
	sink := g.Sink()
	var paths [][]int
	var cur []int
	var walk func(v int) error
	walk = func(v int) error {
		cur = append(cur, v)
		defer func() { cur = cur[:len(cur)-1] }()
		if v == sink {
			if len(paths) >= limit {
				return ErrTooManyPaths
			}
			paths = append(paths, append([]int(nil), cur...))
			return nil
		}
		for _, s := range g.succs[v] {
			if err := walk(s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(g.Source()); err != nil {
		return nil, err
	}
	return paths, nil
}

// CountPaths returns the number of source→sink paths without
// enumerating them (dynamic programming over the topological order),
// saturating at maxInt to stay overflow-safe on pathological graphs.
func (g *Graph) CountPaths() int {
	g.mustFinalized()
	const maxInt = int(^uint(0) >> 1)
	count := make([]int, len(g.nodes))
	count[g.Source()] = 1
	for _, id := range g.topo {
		for _, s := range g.succs[id] {
			if count[s] > maxInt-count[id] {
				count[s] = maxInt
			} else {
				count[s] += count[id]
			}
		}
	}
	return count[g.Sink()]
}

// Articulations returns, in topological order, the nodes that lie on
// every source→sink path (including the source and sink themselves).
// These are the only single-node cut-points of a general DAG; the
// regions between consecutive articulations are the parallel segments
// Decompose splits into branches. Finalize computes them once; the
// returned slice is shared (do not mutate).
func (g *Graph) Articulations() []int {
	g.mustFinalized()
	return g.arts[:len(g.arts):len(g.arts)]
}

// findArticulations is one O(V+E) sweep over the topological order,
// which is ID order (Add only accepts earlier predecessors). The node
// at position i lies on every source→sink path iff no edge (u,w) jumps
// over it, i.e. has u < i < w: such an edge extends to a
// source→u→w→sink path avoiding the node (every node is reachable from
// the single source and reaches the single sink), and without one
// every path, whose IDs only increase, must step on i. reach is the
// furthest node any edge from an earlier node lands on.
func (g *Graph) findArticulations() []int {
	var arts []int
	reach := 0
	for id, succs := range g.succs {
		if reach <= id {
			arts = append(arts, id)
		}
		for _, s := range succs {
			reach = max(reach, s)
		}
	}
	return arts
}

// Segment is one element of a series decomposition: either a single
// articulation node (a line step every path crosses) or a parallel
// region whose Branches are the independent paths between the
// enclosing articulation nodes (endpoints excluded).
type Segment struct {
	// Node is set for a line step (Parallel == nil).
	Node int
	// Branches holds the interior node IDs of each independent path of
	// a parallel region, in topological order. Nil for line steps.
	Branches [][]int
	// Entry and Exit are the articulation nodes delimiting a parallel
	// region. Unused for line steps.
	Entry, Exit int
}

// IsParallel reports whether the segment is a parallel region.
func (s *Segment) IsParallel() bool { return s.Branches != nil }

// Decompose splits the graph into a series of segments delimited by
// articulation nodes. This is the hierarchical form of the paper's
// Fig. 9 conversion: each parallel region's branches are exactly its
// independent paths, but regions are handled one at a time, so a chain
// of Inception modules stays linear in size instead of exponential.
// branchLimit bounds the paths enumerated inside one region (0 = 256).
func (g *Graph) Decompose(branchLimit int) ([]Segment, error) {
	g.mustFinalized()
	if branchLimit <= 0 {
		branchLimit = 256
	}
	arts := g.Articulations()
	var segs []Segment
	for i, a := range arts {
		segs = append(segs, Segment{Node: a})
		if i+1 >= len(arts) {
			break
		}
		next := arts[i+1]
		branches, err := g.regionBranches(a, next, branchLimit)
		if err != nil {
			return nil, err
		}
		if len(branches) == 1 && len(branches[0]) == 0 {
			continue // direct edge a→next, no region between
		}
		segs = append(segs, Segment{Branches: branches, Entry: a, Exit: next})
	}
	return segs, nil
}

// regionBranches enumerates the interior of every path from entry to
// exit. For a single-level parallel region (e.g. an Inception module)
// these are its branches; for nested regions they are the flattened
// independent paths, matching the paper's conversion semantics.
func (g *Graph) regionBranches(entry, exit, limit int) ([][]int, error) {
	var branches [][]int
	var cur []int
	var walk func(v int) error
	walk = func(v int) error {
		if v == exit {
			if len(branches) >= limit {
				return ErrTooManyPaths
			}
			branches = append(branches, append([]int(nil), cur...))
			return nil
		}
		cur = append(cur, v)
		defer func() { cur = cur[:len(cur)-1] }()
		for _, s := range g.succs[v] {
			if err := walk(s); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range g.succs[entry] {
		if err := walk(s); err != nil {
			return nil, err
		}
	}
	return branches, nil
}
