package flowshop

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// ---- legacy reference implementations ----
//
// Verbatim copies of the pre-m-machine Job3 sequencers (the hardcoded
// three-machine CDS/NEH/swap-descent that shipped before mshop.go).
// The production Job3 API is now a wrapper over the JobM code; these
// references pin the refactor bit-identical — same sequence, same
// floating-point makespan — across random instances.

func legacyCDS(jobs []Job3) []Job3 {
	if len(jobs) == 0 {
		return nil
	}
	build := func(first bool) []Job3 {
		two := make([]Job, len(jobs))
		for i, j := range jobs {
			if first {
				two[i] = Job{ID: i, A: j.A, B: j.B + j.C}
			} else {
				two[i] = Job{ID: i, A: j.A + j.B, B: j.C}
			}
		}
		order := Johnson(two)
		seq := make([]Job3, len(order))
		for i, o := range order {
			seq[i] = jobs[o.ID]
		}
		return seq
	}
	s1, s2 := build(true), build(false)
	if Makespan3(s1) <= Makespan3(s2) {
		return s1
	}
	return s2
}

func legacyNEH(jobs []Job3) []Job3 {
	if len(jobs) == 0 {
		return nil
	}
	order := append([]Job3(nil), jobs...)
	sort.SliceStable(order, func(i, j int) bool {
		ti := order[i].A + order[i].B + order[i].C
		tj := order[j].A + order[j].B + order[j].C
		if ti != tj {
			return ti > tj
		}
		return order[i].ID < order[j].ID
	})
	seq := make([]Job3, 0, len(order))
	for _, j := range order {
		bestPos, bestSpan := 0, -1.0
		for pos := 0; pos <= len(seq); pos++ {
			trial := make([]Job3, 0, len(seq)+1)
			trial = append(trial, seq[:pos]...)
			trial = append(trial, j)
			trial = append(trial, seq[pos:]...)
			if span := Makespan3(trial); bestSpan < 0 || span < bestSpan {
				bestPos, bestSpan = pos, span
			}
		}
		seq = append(seq[:bestPos], append([]Job3{j}, seq[bestPos:]...)...)
	}
	return seq
}

func legacySchedule3(jobs []Job3) []Job3 {
	cds := legacyCDS(jobs)
	neh := legacyNEH(jobs)
	seq := cds
	if Makespan3(neh) < Makespan3(cds) {
		seq = neh
	}
	cur := append([]Job3(nil), seq...)
	span := Makespan3(cur)
	for improved := true; improved; {
		improved = false
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				cur[i], cur[j] = cur[j], cur[i]
				if s := Makespan3(cur); s < span-1e-12 {
					span = s
					improved = true
				} else {
					cur[i], cur[j] = cur[j], cur[i]
				}
			}
		}
	}
	return cur
}

// ---- pre-incremental m-machine references ----
//
// Verbatim copies of NEHM and swapDescentM as they stood before the
// sequencers evaluated trials incrementally (full MakespanM per trial
// position or swap). The production code must stay bit-identical to
// them: same sequence, same floating-point makespan.

func refNEHM(jobs []JobM) []JobM {
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
	seq := make([]JobM, 0, len(order))
	for _, j := range order {
		bestPos, bestSpan := 0, -1.0
		for pos := 0; pos <= len(seq); pos++ {
			trial := make([]JobM, 0, len(seq)+1)
			trial = append(trial, seq[:pos]...)
			trial = append(trial, j)
			trial = append(trial, seq[pos:]...)
			if span := MakespanM(trial); bestSpan < 0 || span < bestSpan {
				bestPos, bestSpan = pos, span
			}
		}
		seq = append(seq[:bestPos], append([]JobM{j}, seq[bestPos:]...)...)
	}
	return seq
}

func refSwapDescentM(seq []JobM) []JobM {
	cur := append([]JobM(nil), seq...)
	span := MakespanM(cur)
	for improved := true; improved; {
		improved = false
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				cur[i], cur[j] = cur[j], cur[i]
				if s := MakespanM(cur); s < span-1e-12 {
					span = s
					improved = true
				} else {
					cur[i], cur[j] = cur[j], cur[i]
				}
			}
		}
	}
	return cur
}

func refScheduleM(jobs []JobM) []JobM {
	cds := CDSM(jobs)
	neh := refNEHM(jobs)
	seq := cds
	if MakespanM(neh) < MakespanM(cds) {
		seq = neh
	}
	return refSwapDescentM(seq)
}

// checkParityM fails unless NEHM, swapDescentM and ScheduleM return
// exactly the reference sequences with bit-identical makespans.
func checkParityM(t *testing.T, label string, jobs []JobM) {
	t.Helper()
	cds := CDSM(jobs)
	for _, c := range []struct {
		name      string
		got, want []JobM
	}{
		{"NEHM", NEHM(jobs), refNEHM(jobs)},
		{"swapDescentM", swapDescentM(cds), refSwapDescentM(cds)},
		{"ScheduleM", ScheduleM(jobs), refScheduleM(jobs)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s diverged from the reference\n got %v\nwant %v", label, c.name, c.got, c.want)
		}
		if MakespanM(c.got) != MakespanM(c.want) {
			t.Fatalf("%s: %s makespan not bit-identical", label, c.name)
		}
	}
}

func randJobs3(rng *rand.Rand, n int) []Job3 {
	jobs := make([]Job3, n)
	for i := range jobs {
		jobs[i] = Job3{ID: i, A: rng.Float64() * 10, B: rng.Float64() * 10, C: rng.Float64() * 10}
	}
	return jobs
}

func randJobsM(rng *rand.Rand, n, m int) []JobM {
	jobs := make([]JobM, n)
	for i := range jobs {
		st := make([]float64, m)
		for k := range st {
			st[k] = rng.Float64() * 10
		}
		jobs[i] = JobM{ID: i, Stages: st}
	}
	return jobs
}

// The Job3 wrappers must reproduce the historical three-machine
// sequencers exactly: identical job order AND bit-identical makespan.
func TestScheduleMMatchesSchedule3(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		jobs := randJobs3(rng, n)
		for name, pair := range map[string][2][]Job3{
			"CDS":       {CDS(jobs), legacyCDS(jobs)},
			"NEH":       {NEH(jobs), legacyNEH(jobs)},
			"Schedule3": {Schedule3(jobs), legacySchedule3(jobs)},
		} {
			got, want := pair[0], pair[1]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s diverged from legacy\n got %v\nwant %v", trial, name, got, want)
			}
			if Makespan3(got) != Makespan3(want) {
				t.Fatalf("trial %d: %s makespan not bit-identical", trial, name)
			}
		}
	}
}

// Property (satellite): CompletionsM == Completions3 exactly for m=3,
// and MakespanM == Makespan3 — same FP recurrence, same operation
// order, so equality is ==, not approximate.
func TestCompletionsMMatchesCompletions3(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randJobs3(rng, 1+rng.Intn(10))
		mseq := job3ToM(seq)
		if MakespanM(mseq) != Makespan3(seq) {
			return false
		}
		got, want := CompletionsM(mseq), Completions3(seq)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// At m=2 the single CDS surrogate IS Johnson's rule, which is optimal:
// CDSM must match the exhaustive optimum exactly.
func TestCDSMExactAtTwoMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		jobs := randJobsM(rng, 2+rng.Intn(6), 2)
		_, best, ok := BestPermutationM(jobs)
		if !ok {
			t.Fatal("exhaustive search refused on a small instance")
		}
		if got := MakespanM(CDSM(jobs)); math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: CDSM %g != Johnson optimum %g at m=2", trial, got, best)
		}
	}
}

// Heuristic-gap acceptance: on <=8-job, <=4-machine instances ScheduleM
// stays within 6% of the brute-force optimum and plain CDSM within 35%.
// These are the measured-with-margin bounds documented in DESIGN.md §12
// (observed over this fixed seed: ScheduleM 1.043x worst, CDSM 1.144x
// worst); scripts/check.sh runs this test as its heuristic-gap leg.
func TestScheduleMGapVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	worstSched, worstCDS := 1.0, 1.0
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(7) // 2..8 jobs
		m := 2 + rng.Intn(3) // 2..4 machines
		jobs := randJobsM(rng, n, m)
		_, best, ok := BestPermutationM(jobs)
		if !ok {
			t.Fatal("exhaustive search refused on a small instance")
		}
		sched := MakespanM(ScheduleM(jobs))
		cds := MakespanM(CDSM(jobs))
		if sched < best-1e-9 {
			t.Fatalf("trial %d: ScheduleM %g below optimum %g", trial, sched, best)
		}
		if r := sched / best; r > worstSched {
			worstSched = r
		}
		if r := cds / best; r > worstCDS {
			worstCDS = r
		}
	}
	t.Logf("worst ScheduleM/opt = %.3f, worst CDSM/opt = %.3f", worstSched, worstCDS)
	if worstSched > 1.06 {
		t.Errorf("ScheduleM worst ratio %.3f > documented 1.06 bound", worstSched)
	}
	if worstCDS > 1.35 {
		t.Errorf("CDSM worst ratio %.3f > documented 1.35 bound", worstCDS)
	}
}

// Bugfix regression (input mutation): every public sequencer must leave
// its input slice untouched and return memory disjoint from it.
func TestFlowshopInputsUnmutated(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	jobs3 := randJobs3(rng, 7)
	snap3 := append([]Job3(nil), jobs3...)
	seqs := [][]Job3{CDS(jobs3), NEH(jobs3), Schedule3(jobs3)}
	bp, _, _ := BestPermutation3(jobs3)
	seqs = append(seqs, bp)
	for _, s := range seqs {
		for i := range s {
			s[i].A = -1 // scribble on outputs; inputs must not see it
		}
	}
	if !reflect.DeepEqual(jobs3, snap3) {
		t.Errorf("Job3 input mutated: %v != %v", jobs3, snap3)
	}

	jobsM := randJobsM(rng, 7, 4)
	snapM := cloneJobsM(jobsM)
	seqsM := [][]JobM{CDSM(jobsM), NEHM(jobsM), ScheduleM(jobsM)}
	bpM, _, _ := BestPermutationM(jobsM)
	seqsM = append(seqsM, bpM)
	for _, s := range seqsM {
		for i := range s {
			for k := range s[i].Stages {
				s[i].Stages[k] = -1 // aliased Stages would corrupt the input
			}
		}
	}
	if !reflect.DeepEqual(jobsM, snapM) {
		t.Errorf("JobM input mutated (Stages aliasing): %v != %v", jobsM, snapM)
	}
}

// Bugfix regression (factorial guard): at the MaxExhaustiveJobs
// boundary the search still runs (ok=true); one past it the call
// returns instantly with the heuristic and ok=false.
func TestBestPermutationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	at := randJobsM(rng, MaxExhaustiveJobs, 3)
	if _, _, ok := BestPermutationM(at); !ok {
		t.Errorf("n=%d (at cap) must run exhaustively", MaxExhaustiveJobs)
	}
	over := randJobsM(rng, MaxExhaustiveJobs+1, 3)
	seq, span, ok := BestPermutationM(over)
	if ok {
		t.Errorf("n=%d (over cap) must refuse exhaustive search", MaxExhaustiveJobs+1)
	}
	want := ScheduleM(over)
	if !reflect.DeepEqual(seq, want) || span != MakespanM(want) {
		t.Error("over-cap fallback must be the ScheduleM heuristic sequence")
	}

	over3 := randJobs3(rng, MaxExhaustiveJobs+1)
	if _, _, ok := BestPermutation3(over3); ok {
		t.Error("BestPermutation3 must inherit the cap")
	}
	if _, _, ok := BestPermutationM(nil); !ok {
		t.Error("empty instance is trivially optimal, ok must be true")
	}
}

// MakespanM is bounded below by every per-machine stage sum and above
// by the fully serial sum, for any m.
func TestMakespanMBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		jobs := randJobsM(rng, 1+rng.Intn(8), 2+rng.Intn(4))
		span := MakespanM(ScheduleM(jobs))
		var serial float64
		for _, s := range SumStagesM(jobs) {
			if span < s-1e-9 {
				return false
			}
			serial += s
		}
		return span <= serial+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The incremental sequencers must match the full-recompute references
// bit-for-bit on continuous stages, on copies of a few stage vectors
// (the instances JPSChain builds from two mixed cut tuples), and on
// small-integer stages full of ties.
func TestScheduleMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	families := []struct {
		name string
		make func(n, m int) []JobM
	}{
		{"continuous", func(n, m int) []JobM { return randJobsM(rng, n, m) }},
		{"few-types", func(n, m int) []JobM {
			types := randJobsM(rng, 1+rng.Intn(3), m)
			jobs := make([]JobM, n)
			for i := range jobs {
				st := types[rng.Intn(len(types))].Stages
				jobs[i] = JobM{ID: i, Stages: append([]float64(nil), st...)}
			}
			return jobs
		}},
		{"small-int", func(n, m int) []JobM {
			jobs := randJobsM(rng, n, m)
			for _, j := range jobs {
				for k := range j.Stages {
					j.Stages[k] = float64(rng.Intn(4))
				}
			}
			return jobs
		}},
	}
	for _, fam := range families {
		for trial := 0; trial < 60; trial++ {
			n, m := 1+rng.Intn(64), 2+rng.Intn(4)
			checkParityM(t, fmt.Sprintf("%s trial %d (n=%d m=%d)", fam.name, trial, n, m), fam.make(n, m))
		}
	}
}

// FuzzScheduleMVsReference decodes bytes into a small job matrix and
// requires bit-parity with the reference sequencers. Byte 0 picks the
// machine count m (0..5); each job then starts with a control byte:
// with the high bit set the job repeats the stages of an earlier job,
// otherwise the next m bytes are its stages in eighths, so zero stages
// and ties are common.
func FuzzScheduleMVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := int(data[0]) % 6
		var jobs []JobM
		for r := data[1:]; len(r) > 0 && len(jobs) < 40; {
			ctl := r[0]
			r = r[1:]
			st := make([]float64, m)
			if ctl&0x80 != 0 && len(jobs) > 0 {
				copy(st, jobs[int(ctl&0x7f)%len(jobs)].Stages)
			} else {
				if len(r) < m {
					break
				}
				for k := range st {
					st[k] = float64(r[k]) / 8
				}
				r = r[m:]
			}
			jobs = append(jobs, JobM{ID: len(jobs), Stages: st})
		}
		checkParityM(t, fmt.Sprintf("m=%d n=%d", m, len(jobs)), jobs)
	})
}

// twoTypeJobsM builds n jobs that share one of two stage vectors, a
// quarter of them the second — the shape JPSChain's mixed splits give
// the sequencer.
func twoTypeJobsM(rng *rand.Rand, n, m int) []JobM {
	types := randJobsM(rng, 2, m)
	jobs := make([]JobM, n)
	for i := range jobs {
		st := types[0].Stages
		if i < n/4 {
			st = types[1].Stages
		}
		jobs[i] = JobM{ID: i, Stages: append([]float64(nil), st...)}
	}
	return jobs
}

// ScheduleM allocates O(n), not O(n²): clones of the input, a few
// sequence and state buffers, and no per-trial slices. Measured 318
// allocations per call at n=128, m=3 on this instance (the
// full-recompute reference makes 25075), so the bound 3n+64 = 448
// leaves room for small changes while failing any per-trial
// allocation.
func TestScheduleMAllocsLinear(t *testing.T) {
	const n = 128
	jobs := randJobsM(rand.New(rand.NewSource(151)), n, 3)
	allocs := testing.AllocsPerRun(5, func() { ScheduleM(jobs) })
	t.Logf("ScheduleM n=%d m=3: %.0f allocs/call", n, allocs)
	if bound := 3*n + 64; allocs > float64(bound) {
		t.Errorf("ScheduleM made %.0f allocs at n=%d, bound 3n+64 = %d", allocs, n, bound)
	}
}

var sinkJobsM []JobM

func BenchmarkScheduleM(b *testing.B) {
	for _, n := range []int{32, 128} {
		for _, kind := range []struct {
			name string
			make func(*rand.Rand, int, int) []JobM
		}{{"random", randJobsM}, {"twotype", twoTypeJobsM}} {
			jobs := kind.make(rand.New(rand.NewSource(int64(n))), n, 3)
			b.Run(fmt.Sprintf("%s/n=%d", kind.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkJobsM = ScheduleM(jobs)
				}
			})
		}
	}
}
