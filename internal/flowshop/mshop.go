package flowshop

import (
	"math"
	"slices"
	"sort"
)

// m-machine permutation flow shop — the general form behind the k-way
// device-chain extension. A job partitioned by k cuts over an ordered
// device chain becomes a (k+1)-stage job: device-0 compute, then one
// transmission stage per link. The two-machine theory (Johnson, exact)
// and the hardcoded three-machine Job3 path are the m=2 / m=3 special
// cases of the functions here; the Job3 API in cds.go is now a thin
// wrapper over these so there is exactly one scheduling implementation.
//
// The CDS generalization uses the prefix/suffix-split surrogate family:
// surrogate t (t = 1..m-1) is the two-machine instance A = Σ first t
// stages, B = Σ last m-t stages, solved by Johnson's rule; the best of
// the m-1 sequences wins. At m=2 the single surrogate IS Johnson's rule
// (exact); at m=3 the family is exactly the pair (A vs B+C, A+B vs C)
// the three-machine code has always shipped, so rebasing Job3 on JobM
// changes no schedule bit-for-bit (pinned by TestScheduleMMatchesSchedule3).

// JobM is an m-stage job: Stages[i] runs on machine i. Every job in a
// sequence must have the same number of stages, and stages are
// processing times, never negative (the sequencers' early pruning
// relies on it). ID is an opaque caller tag preserved by scheduling.
type JobM struct {
	ID     int
	Stages []float64
}

// Total returns the serial processing time Σ Stages.
func (j JobM) Total() float64 {
	var t float64
	for _, s := range j.Stages {
		t += s
	}
	return t
}

// cloneJobsM deep-copies a job slice, Stages included, so scheduling
// never aliases (let alone mutates) caller memory — the API-boundary
// copy discipline TestFlowshopInputsUnmutated pins.
func cloneJobsM(jobs []JobM) []JobM {
	out := make([]JobM, len(jobs))
	for i, j := range jobs {
		out[i] = JobM{ID: j.ID, Stages: append([]float64(nil), j.Stages...)}
	}
	return out
}

// MakespanM evaluates the exact m-machine permutation flow-shop
// makespan recurrence C_{i,j} = max(C_{i-1,j}, C_{i,j-1}) + p_{i,j}
// for a sequence. Empty sequences have makespan 0.
func MakespanM(seq []JobM) float64 {
	if len(seq) == 0 {
		return 0
	}
	m := len(seq[0].Stages)
	if m == 0 {
		return 0
	}
	c := make([]float64, m)
	for _, j := range seq {
		c[0] += j.Stages[0]
		for k := 1; k < m; k++ {
			if c[k-1] > c[k] {
				c[k] = c[k-1]
			}
			c[k] += j.Stages[k]
		}
	}
	return c[m-1]
}

// CompletionsM returns each job's completion time (end of its last
// stage) in sequence order.
func CompletionsM(seq []JobM) []float64 {
	out := make([]float64, len(seq))
	if len(seq) == 0 {
		return out
	}
	m := len(seq[0].Stages)
	c := make([]float64, m)
	for i, j := range seq {
		c[0] += j.Stages[0]
		for k := 1; k < m; k++ {
			if c[k-1] > c[k] {
				c[k] = c[k-1]
			}
			c[k] += j.Stages[k]
		}
		out[i] = c[m-1]
	}
	return out
}

// SumStagesM returns the per-machine stage sums — the m lower bounds
// whose maximum drives the asymptotic average makespan.
func SumStagesM(jobs []JobM) []float64 {
	if len(jobs) == 0 {
		return nil
	}
	sums := make([]float64, len(jobs[0].Stages))
	for _, j := range jobs {
		for k, s := range j.Stages {
			sums[k] += s
		}
	}
	return sums
}

// CDSM orders jobs with the Campbell–Dudek–Smith heuristic generalized
// to m machines: m-1 two-machine surrogates (prefix sum of the first t
// stages vs suffix sum of the last m-t stages, t = 1..m-1) are each
// sequenced by Johnson's rule and the best makespan wins (ties keep the
// smaller t, so m=3 reproduces the historical A vs B+C preference).
// The input is not modified and the result shares no memory with it.
func CDSM(jobs []JobM) []JobM {
	if len(jobs) == 0 {
		return nil
	}
	m := len(jobs[0].Stages)
	if m <= 1 {
		return cloneJobsM(jobs)
	}
	var best []JobM
	bestSpan := 0.0
	for t := 1; t < m; t++ {
		two := make([]Job, len(jobs))
		for i, j := range jobs {
			var a, b float64
			for k := 0; k < t; k++ {
				a += j.Stages[k]
			}
			for k := t; k < m; k++ {
				b += j.Stages[k]
			}
			two[i] = Job{ID: i, A: a, B: b}
		}
		order := Johnson(two)
		seq := make([]JobM, len(order))
		for i, o := range order {
			seq[i] = jobs[o.ID]
		}
		if span := MakespanM(seq); best == nil || span < bestSpan {
			best, bestSpan = seq, span
		}
	}
	return cloneJobsM(best)
}

// NEHM orders jobs with the Nawaz–Enscore–Ham insertion heuristic on m
// machines: jobs sorted by decreasing total processing time are
// inserted one at a time at the position minimizing the partial
// makespan. Each trial insertion reuses the recurrence state of the
// unchanged prefix and runs only the suffix; trials that equal an
// earlier one (the new job next to a job with the same stages) are
// skipped, and a trial stops once it can no longer beat the best span.
// That is O(n³·m) in the worst case but near O(n²·m) on the few-type
// instances the chain planner produces, with O(n) allocations. The
// input is not modified and the result shares no memory with it.
func NEHM(jobs []JobM) []JobM {
	if len(jobs) == 0 {
		return nil
	}
	order := cloneJobsM(jobs)
	sort.SliceStable(order, func(i, j int) bool {
		ti, tj := order[i].Total(), order[j].Total()
		if ti != tj {
			return ti > tj
		}
		return order[i].ID < order[j].ID
	})
	n, m := len(order), len(order[0].Stages)
	if m == 0 {
		// Every makespan is 0, so each job lands at position 0.
		slices.Reverse(order)
		return order
	}
	seq := make([]JobM, 0, n)
	st := make([]float64, 0, n*m)
	heads := make([]float64, (n+1)*m)
	c := make([]float64, m)
	for _, j := range order {
		bestPos, bestSpan := 0, -1.0
		for pos := 0; pos <= len(seq); pos++ {
			if pos > 0 && slices.Equal(st[(pos-1)*m:pos*m], j.Stages) {
				continue // same stage sequence as the trial at pos-1
			}
			limit := bestSpan
			if pos == 0 {
				limit = math.NaN() // nothing to beat yet: never prune
			}
			copy(c, heads[pos*m:(pos+1)*m])
			if !advance(c, j.Stages, limit) || !advance(c, st[pos*m:], limit) {
				continue
			}
			if span := c[m-1]; bestSpan < 0 || span < bestSpan {
				bestPos, bestSpan = pos, span
			}
		}
		seq = slices.Insert(seq, bestPos, j)
		st = slices.Insert(st, bestPos*m, j.Stages...)
		fillHeads(heads, st, bestPos, m)
	}
	return seq
}

// ScheduleM is the production m-machine sequencer: the better of the
// CDSM and NEHM sequences, polished by pairwise-swap descent. The input
// is not modified and the result shares no memory with it.
func ScheduleM(jobs []JobM) []JobM {
	cds := CDSM(jobs)
	neh := NEHM(jobs)
	seq := cds
	if MakespanM(neh) < MakespanM(cds) {
		seq = neh
	}
	return swapDescentM(seq)
}

// swapDescentM applies first-improvement pairwise swaps until a local
// optimum. A trial swap of positions i<j restarts the recurrence from
// the state after the unchanged prefix cur[:i]; swaps of jobs with
// equal stages are skipped, and a trial stops once it can no longer
// improve the span by the 1e-12 margin. O(n³·m) per pass in the worst
// case and a handful of passes in practice. The input slice is copied,
// never reordered in place.
func swapDescentM(seq []JobM) []JobM {
	cur := append([]JobM(nil), seq...)
	span := MakespanM(cur)
	n := len(cur)
	if n < 2 {
		return cur
	}
	m := len(cur[0].Stages)
	st := make([]float64, 0, n*m)
	for _, j := range cur {
		st = append(st, j.Stages...)
	}
	heads := make([]float64, (n+1)*m)
	fillHeads(heads, st, 0, m)
	c := make([]float64, m)
	for improved := true; improved; {
		improved = false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ri, rj := st[i*m:(i+1)*m], st[j*m:(j+1)*m]
				if slices.Equal(ri, rj) {
					continue // the swap leaves the stage sequence unchanged
				}
				limit := span - 1e-12
				copy(c, heads[i*m:(i+1)*m])
				if advance(c, rj, limit) && advance(c, st[(i+1)*m:j*m], limit) &&
					advance(c, ri, limit) && advance(c, st[(j+1)*m:], limit) &&
					c[m-1] < limit {
					span = c[m-1]
					cur[i], cur[j] = cur[j], cur[i]
					for k := range ri {
						ri[k], rj[k] = rj[k], ri[k]
					}
					fillHeads(heads, st, i, m)
					improved = true
				}
			}
		}
	}
	return cur
}

// advance runs the MakespanM recurrence from state c over the jobs
// whose stages are laid out row-major in st, performing the same float
// operations in the same order, so a trial resumed from a stored
// prefix state ends bit-identical to a full MakespanM. It returns false
// as soon as the last machine's completion reaches limit: with
// non-negative stages that value only grows, so the finished span could
// not be below limit. A NaN limit never stops the run.
func advance(c, st []float64, limit float64) bool {
	m := len(c)
	for r := 0; r < len(st); r += m {
		p := st[r : r+m]
		c[0] += p[0]
		for k := 1; k < m; k++ {
			if c[k-1] > c[k] {
				c[k] = c[k-1]
			}
			c[k] += p[k]
		}
		if c[m-1] >= limit {
			return false
		}
	}
	return true
}

// fillHeads recomputes the prefix states heads[(p+1)*m:(p+2)*m] for
// p >= from: heads row p is the recurrence state after the first p
// jobs of st, row 0 the all-zero start state.
func fillHeads(heads, st []float64, from, m int) {
	for p := from; p*m < len(st); p++ {
		next := heads[(p+1)*m : (p+2)*m]
		copy(next, heads[p*m:(p+1)*m])
		advance(next, st[p*m:(p+1)*m], math.NaN())
	}
}

// MaxExhaustiveJobs caps the factorial permutation searches
// (BestPermutationM, BestPermutation3): 10! ≈ 3.6M makespan evaluations
// is the largest instance that stays sub-second. Above the cap the
// searches return the ScheduleM heuristic with ok=false instead of
// hanging the caller — an 11-job "validation" call used to spin CI for
// minutes; now it degrades loudly and instantly.
const MaxExhaustiveJobs = 10

// BestPermutationM exhaustively searches all permutations (Heap's
// algorithm) and returns a makespan-minimal sequence with ok=true.
// Beyond MaxExhaustiveJobs the search is refused: the ScheduleM
// heuristic sequence comes back with ok=false so callers can still
// proceed but never mistake it for the optimum. The input is not
// modified.
func BestPermutationM(jobs []JobM) (seq []JobM, span float64, ok bool) {
	if len(jobs) > MaxExhaustiveJobs {
		seq = ScheduleM(jobs)
		return seq, MakespanM(seq), false
	}
	best := cloneJobsM(jobs)
	bestSpan := MakespanM(best)
	perm := cloneJobsM(jobs)
	var heaps func(k int)
	heaps = func(k int) {
		if k == 1 {
			if span := MakespanM(perm); span < bestSpan {
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
	return best, bestSpan, true
}
