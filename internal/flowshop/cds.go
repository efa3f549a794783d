package flowshop

// Three-machine flow shop support for the mobile→edge→cloud extension.
// With three stages the makespan-minimal permutation problem is
// NP-hard (Garey, Johnson & Sethi 1976); the Campbell–Dudek–Smith
// (CDS) heuristic builds m-1 two-machine surrogate instances solved by
// Johnson's rule and keeps the best, which is exact whenever one
// machine dominates — the usual case here, where the cloud stage is
// tiny.
//
// Since the k-way chain work the Job3 sequencers are thin wrappers
// over the m-machine implementations in mshop.go; only the makespan
// recurrences stay specialized (no per-call slice conversion on the
// planner's hot evaluate path). TestScheduleMMatchesSchedule3 pins the
// wrappers bit-identical to the historical 3-machine code.

// Job3 is a three-stage job: A on the mobile CPU, B on the
// mobile→edge uplink, C on the edge→cloud uplink (or edge compute —
// any third serial resource).
type Job3 struct {
	ID      int
	A, B, C float64
}

func job3ToM(jobs []Job3) []JobM {
	out := make([]JobM, len(jobs))
	for i, j := range jobs {
		out[i] = JobM{ID: j.ID, Stages: []float64{j.A, j.B, j.C}}
	}
	return out
}

func mToJob3(jobs []JobM) []Job3 {
	if jobs == nil {
		return nil
	}
	out := make([]Job3, len(jobs))
	for i, j := range jobs {
		out[i] = Job3{ID: j.ID, A: j.Stages[0], B: j.Stages[1], C: j.Stages[2]}
	}
	return out
}

// Makespan3 evaluates the exact three-machine permutation flow-shop
// makespan recurrence for a sequence.
func Makespan3(seq []Job3) float64 {
	var c1, c2, c3 float64
	for _, j := range seq {
		c1 += j.A
		if c1 > c2 {
			c2 = c1
		}
		c2 += j.B
		if c2 > c3 {
			c3 = c2
		}
		c3 += j.C
	}
	return c3
}

// Completions3 returns per-job completion times in sequence order.
func Completions3(seq []Job3) []float64 {
	out := make([]float64, len(seq))
	var c1, c2, c3 float64
	for i, j := range seq {
		c1 += j.A
		if c1 > c2 {
			c2 = c1
		}
		c2 += j.B
		if c2 > c3 {
			c3 = c2
		}
		c3 += j.C
		out[i] = c3
	}
	return out
}

// CDS orders jobs with the Campbell–Dudek–Smith heuristic: two
// surrogate two-machine instances (A vs B+C and A+B vs C) are
// sequenced by Johnson's rule and the better makespan wins. The input
// is not modified.
func CDS(jobs []Job3) []Job3 {
	return mToJob3(CDSM(job3ToM(jobs)))
}

// NEH orders jobs with the Nawaz–Enscore–Ham insertion heuristic:
// jobs sorted by decreasing total processing time are inserted one at
// a time at the position minimizing the partial makespan. It runs
// NEHM's incremental trial evaluation (prefix reuse, equal-neighbour
// skips, early pruning): O(n³) in the worst case, near O(n²) when
// jobs share a few stage vectors, and consistently tighter than CDS on
// hard instances.
func NEH(jobs []Job3) []Job3 {
	return mToJob3(NEHM(job3ToM(jobs)))
}

// Schedule3 is the production three-machine sequencer: the better of
// the CDS and NEH sequences, polished by pairwise-swap descent. The
// input is not modified.
func Schedule3(jobs []Job3) []Job3 {
	return mToJob3(ScheduleM(job3ToM(jobs)))
}

// BestPermutation3 exhaustively finds a makespan-minimal sequence
// when len(jobs) <= MaxExhaustiveJobs (ok=true); above the cap it
// returns the Schedule3 heuristic with ok=false instead of launching
// a factorial search. The input is not modified.
func BestPermutation3(jobs []Job3) (seq []Job3, span float64, ok bool) {
	m, s, ok := BestPermutationM(job3ToM(jobs))
	return mToJob3(m), s, ok
}
