package mine

import (
	"context"
	"runtime"
	"testing"

	"permine/internal/combinat"
	"permine/internal/core"
	seqgen "permine/internal/gen"
	"permine/internal/pil"
)

// benchLevelFixture builds the realistic DNA workload the level
// benchmarks run on: a genome-like sequence (biased composition, so PIL
// sizes are imbalanced across patterns) seeded at level k under the given
// gap and join strategy.
func benchLevelFixture(b *testing.B, length, k int, g combinat.Gap, join core.JoinStrategy) (*runner, []hatEntry) {
	b.Helper()
	s, err := seqgen.GenomeLike(length, 42)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Params{Gap: g, MinSupport: 0, Workers: runtime.NumCPU(), StartLen: k, Join: join}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	counter, err := combinat.NewCounter(s.Len(), g)
	if err != nil {
		b.Fatal(err)
	}
	start, err := pil.ScanKPacked(s, g, k)
	if err != nil {
		b.Fatal(err)
	}
	res := &core.Result{Algorithm: core.AlgoMPP, Params: p, SeqLen: s.Len(), N: 10}
	r := &runner{s: s, p: p, counter: counter, n: 10, res: res}
	r.acquireScratch() // budgeting enabled, as in real runs
	b.Cleanup(r.releaseScratch)
	hat := make([]hatEntry, 0, len(start))
	for _, cl := range start {
		hat = append(hat, hatEntry{code: cl.Code, list: cl.List, sup: cl.Sup})
	}
	return r, hat
}

// runLevelBench drives one full level of the level-wise miner (candidate
// generation + work-stealing support counting) b.N times on a fixture
// seeded at level k.
func runLevelBench(b *testing.B, r *runner, hat []hatEntry, k int) levelStats {
	b.Helper()
	ctx := context.Background()
	var st levelStats
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st = levelStats{}
		cands := r.gen(hat, k)
		counted := r.countCandidates(ctx, k+1, hat, cands, &st)
		if r.err != nil {
			b.Fatal(r.err)
		}
		if len(counted) == 0 {
			b.Fatal("no candidates survived")
		}
	}
	return st
}

// BenchmarkMineLevel measures one level on an imbalanced level-3 DNA hat
// with Workers = NumCPU under the default (auto) join selection.
func BenchmarkMineLevel(b *testing.B) {
	r, hat := benchLevelFixture(b, 20000, 3, combinat.Gap{N: 9, M: 12}, core.JoinAuto)
	runLevelBench(b, r, hat, 3)
}

// BenchmarkMineLevelSmallW is the narrow-window (W = M−N+1 = 2) DNA
// regime at a span past the cumulative table's memory cap: a 1.5 Mbp
// sequence mined from single symbols, so the level-2 join seeds its
// tables from the sequence's shared per-symbol occurrence bitmaps. Auto
// selects the bit-parallel bitmap kernel here; before it existed, the
// capped cumulative table degraded these joins to the two-pointer scan.
func BenchmarkMineLevelSmallW(b *testing.B) {
	r, hat := benchLevelFixture(b, 1_500_000, 1, combinat.Gap{N: 9, M: 10}, core.JoinAuto)
	st := runLevelBench(b, r, hat, 1)
	if st.bitap == 0 || st.cumFalls == 0 {
		b.Fatalf("auto selected bitap for %d joins (%d cum-span fallbacks); the regime must exercise the bitmap kernel",
			st.bitap, st.cumFalls)
	}
}

// BenchmarkJoinStrategies pins each join strategy on a small-window
// workload where every strategy runs for real (the span fits all the
// table caps), so the per-kernel costs (and the auto selector's pick)
// compare directly from one bench run.
func BenchmarkJoinStrategies(b *testing.B) {
	for _, join := range []core.JoinStrategy{core.JoinAuto, core.JoinTwoPointer, core.JoinCum, core.JoinBitap} {
		b.Run(join.String(), func(b *testing.B) {
			r, hat := benchLevelFixture(b, 20000, 1, combinat.Gap{N: 9, M: 10}, join)
			runLevelBench(b, r, hat, 1)
		})
	}
}

// BenchmarkMineE2E measures a full MPPm mining run end to end.
func BenchmarkMineE2E(b *testing.B) {
	s, err := seqgen.GenomeLike(2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.00003, EmOrder: 8, Workers: runtime.NumCPU()}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := MPPm(s, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}
