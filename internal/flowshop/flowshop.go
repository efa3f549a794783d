// Package flowshop implements the two-machine flow-shop scheduling
// theory of Section 4: after partitioning, every job is a pair of
// serial stages — mobile computation (stage A) then upload (stage B) —
// sharing one CPU and one uplink, pipelined across jobs. Johnson's
// rule gives the makespan-optimal permutation (Alg. 1); the package
// also provides the exact makespan recurrence, the closed form of
// Proposition 4.1, Gantt extraction and exhaustive sequencing for
// validation.
package flowshop

import (
	"cmp"
	"slices"
)

// Job is one partitioned inference job: A is the computation-stage
// length f(P_j), B the communication-stage length g(P_j). ID is an
// opaque caller tag preserved by scheduling.
type Job struct {
	ID int
	A  float64
	B  float64
}

// CommHeavy reports whether the job belongs to the paper's
// communication-heavy set S1 (f < g).
func (j Job) CommHeavy() bool { return j.A < j.B }

// Johnson returns the makespan-optimal permutation per Johnson's rule
// (Alg. 1): the communication-heavy set S1 sorted by ascending A,
// followed by the computation-heavy set S2 sorted by descending B.
// Ties break by ID so schedules are deterministic. The input is not
// modified.
func Johnson(jobs []Job) []Job {
	// One output slice: S1 fills the front and S2 the back, each in
	// input order, so the stable sorts below see what two separate
	// sets would.
	k := 0
	for _, j := range jobs {
		if j.CommHeavy() {
			k++
		}
	}
	out := make([]Job, len(jobs))
	s1, s2 := out[:0], out[k:k]
	for _, j := range jobs {
		if j.CommHeavy() {
			s1 = append(s1, j)
		} else {
			s2 = append(s2, j)
		}
	}
	slices.SortStableFunc(s1, func(x, y Job) int {
		if x.A != y.A {
			return boolCmp(x.A < y.A)
		}
		return cmp.Compare(x.ID, y.ID)
	})
	slices.SortStableFunc(s2, func(x, y Job) int {
		if x.B != y.B {
			return boolCmp(x.B > y.B)
		}
		return cmp.Compare(x.ID, y.ID)
	})
	return out
}

// boolCmp turns the outcome of a strict float comparison into a
// comparison result. The stable sort consults only cmp < 0, so the
// order matches the boolean less function exactly, NaN stages
// included (cmp.Compare would order NaN first).
func boolCmp(less bool) int {
	if less {
		return -1
	}
	return 1
}

// Makespan evaluates the exact two-machine flow-shop makespan of a
// sequence via the standard recurrence:
//
//	C1_j = C1_{j-1} + a_j
//	C2_j = max(C2_{j-1}, C1_j) + b_j
func Makespan(seq []Job) float64 {
	var c1, c2 float64
	for _, j := range seq {
		c1 += j.A
		if c1 > c2 {
			c2 = c1
		}
		c2 += j.B
	}
	return c2
}

// Completions returns each job's completion time (end of its B stage)
// in sequence order.
func Completions(seq []Job) []float64 {
	out := make([]float64, len(seq))
	var c1, c2 float64
	for i, j := range seq {
		c1 += j.A
		if c1 > c2 {
			c2 = c1
		}
		c2 += j.B
		out[i] = c2
	}
	return out
}

// FormulaMakespan evaluates the closed form of Proposition 4.1:
//
//	f(x_1) + max(Σ_{i≥2} f(x_i), Σ_{i≤n-1} g(x_i)) + g(x_n)
//
// The formula is exact when the sequence is Johnson-ordered AND the
// jobs are drawn from a common monotone cut curve (x_i ≤ x_j implies
// A_i ≤ A_j and B_i ≥ B_j) — the identical-DNN setting of the paper.
// For arbitrary job sets it is only a lower bound on Makespan (see
// TestFormulaIsOnlyALowerBoundInGeneral).
func FormulaMakespan(seq []Job) float64 {
	if len(seq) == 0 {
		return 0
	}
	var sumA, sumB float64
	for _, j := range seq {
		sumA += j.A
		sumB += j.B
	}
	first, last := seq[0], seq[len(seq)-1]
	inner := max(sumA-first.A, sumB-last.B)
	return first.A + inner + last.B
}

// Interval is one bar of a Gantt chart.
type Interval struct {
	JobID      int
	Start, End float64
}

// Gantt returns the computation-stage and communication-stage
// intervals of a sequence, in sequence order.
func Gantt(seq []Job) (comp, comm []Interval) {
	var c1, c2 float64
	for _, j := range seq {
		comp = append(comp, Interval{JobID: j.ID, Start: c1, End: c1 + j.A})
		c1 += j.A
		start := c2
		if c1 > start {
			start = c1
		}
		comm = append(comm, Interval{JobID: j.ID, Start: start, End: start + j.B})
		c2 = start + j.B
	}
	return comp, comm
}

// BestPermutation exhaustively searches all permutations (Heap's
// algorithm) and returns a makespan-minimal sequence. Exponential:
// intended for validating Johnson on small instances (n ≤ ~9).
func BestPermutation(jobs []Job) ([]Job, float64) {
	best := append([]Job(nil), jobs...)
	bestSpan := Makespan(best)
	perm := append([]Job(nil), jobs...)
	var heaps func(k int)
	heaps = func(k int) {
		if k == 1 {
			if span := Makespan(perm); span < bestSpan {
				bestSpan = span
				copy(best, perm)
			}
			return
		}
		for i := 0; i < k; i++ {
			heaps(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	if len(perm) > 0 {
		heaps(len(perm))
	}
	return best, bestSpan
}

// WorstPermutation is BestPermutation's mirror, used by the scheduling
// ablation to bound how much ordering matters.
func WorstPermutation(jobs []Job) ([]Job, float64) {
	worst := append([]Job(nil), jobs...)
	worstSpan := Makespan(worst)
	perm := append([]Job(nil), jobs...)
	var heaps func(k int)
	heaps = func(k int) {
		if k == 1 {
			if span := Makespan(perm); span > worstSpan {
				worstSpan = span
				copy(worst, perm)
			}
			return
		}
		for i := 0; i < k; i++ {
			heaps(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	if len(perm) > 0 {
		heaps(len(perm))
	}
	return worst, worstSpan
}

// SumStages returns (ΣA, ΣB) — the two lower bounds whose maximum
// drives the asymptotic average makespan of §4.2.
func SumStages(jobs []Job) (sumA, sumB float64) {
	for _, j := range jobs {
		sumA += j.A
		sumB += j.B
	}
	return sumA, sumB
}
