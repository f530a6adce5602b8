package embound

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"permine/internal/combinat"
	"permine/internal/gen"
	"permine/internal/pil"
	"permine/internal/seq"
)

// dfsEm is the reference e_m: the maximum of K_r over every offset,
// each computed by its own walk of the offset tree (Kr's kounter), with
// Em's degenerate 0 → 1.
func dfsEm(s *seq.Sequence, g combinat.Gap, m int) int64 {
	k := newKounter(s, g, m)
	best := int64(1)
	for r := 0; r < s.Len(); r++ {
		best = max(best, k.kr(r))
	}
	return best
}

// chunked runs the sweep with n chunks forced, whatever the input
// length, so chunks can be shorter than their overlap.
func chunked(t testing.TB, s *seq.Sequence, g combinat.Gap, m, n int) int64 {
	t.Helper()
	ms, err := measure(context.Background(), s, g, m, Options{Workers: n}, n)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Chunks != n {
		t.Fatalf("asked for %d chunks, swept %d", n, ms.Chunks)
	}
	return ms.Em
}

// TestEmChunksDifferential checks that the chunked sweep equals the
// single-chunk sweep and the per-offset DFS over both alphabets, window
// widths 1, 2 and 4, the orders m the miners use, several worker counts,
// and lengths around the chunk boundaries: shorter than maxspan(m+1),
// chunks shorter than their overlap (forced counts), and the
// 2·chunkSpans·maxspan(m+1) threshold where Measure first splits.
func TestEmChunksDifferential(t *testing.T) {
	maxCells := map[kind]float64{kindDense: 5e7, kindMerge: 5e6}
	dna, err := gen.GenomeLike(3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	protein, err := gen.ProteinRepeat(3000, 13)
	if err != nil {
		t.Fatal(err)
	}
	gaps := []combinat.Gap{{N: 2, M: 2}, {N: 1, M: 2}, {N: 1, M: 4}} // W = 1, 2, 4
	for _, base := range []*seq.Sequence{dna, protein} {
		for _, g := range gaps {
			for _, m := range []int{1, 2, 3, 6, 8, 10} {
				span := combinat.MaxSpan(m+1, g)
				split := 2 * chunkSpans * span
				for _, L := range []int{span - 1, span, 2*span + 1, split - 1, split, split + 7} {
					// A sweep visits about W^(m−1) list cells per offset,
					// and a merge cell costs about ten dense ones. Past
					// these caps (W = 4 at m = 10, and protein at m = 8,
					// on the longer lengths) a case takes seconds and
					// covers nothing the shorter lengths with forced chunk
					// counts do not.
					if math.Pow(float64(g.W()), float64(m-1))*float64(L) > maxCells[pickKind(base, g, m)] {
						continue
					}
					s, err := base.Fragment(0, min(L, base.Len()))
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/W=%d/m=%d/L=%d", base.Alphabet().Name(), g.W(), m, s.Len())
					t.Run(name, func(t *testing.T) { checkChunks(t, s, g, m) })
				}
			}
		}
	}
}

// TestEmChunksDFSKind covers the per-offset fallback (pattern codes
// wider than a uint64: protein at m = 14), whose chunks need no overlap.
func TestEmChunksDFSKind(t *testing.T) {
	protein, err := gen.ProteinRepeat(200, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []combinat.Gap{{N: 2, M: 2}, {N: 1, M: 2}} {
		if k := pickKind(protein, g, 14); k != kindDFS {
			t.Fatalf("protein m=14 picked kind %d, want the DFS fallback", k)
		}
		t.Run(fmt.Sprintf("W=%d", g.W()), func(t *testing.T) { checkChunks(t, protein, g, 14) })
	}
}

// checkChunks compares the single-chunk sweep with the per-offset DFS
// (where the W^m walks are affordable), with Measure's own split for
// each worker count, and with that many chunks forced however short.
func checkChunks(t *testing.T, s *seq.Sequence, g combinat.Gap, m int) {
	t.Helper()
	single := chunked(t, s, g, m, 1)
	if math.Pow(float64(g.W()), float64(m))*float64(s.Len()) <= 4e6 {
		if want := dfsEm(s, g, m); single != want {
			t.Errorf("single-chunk sweep e_m=%d, per-offset DFS %d", single, want)
		}
	}
	seen := map[int]bool{1: true} // chunk counts already compared
	for _, w := range []int{1, 2, 3, 7} {
		if n := max(1, min(w, s.Len()/(chunkSpans*combinat.MaxSpan(m+1, g)))); !seen[n] {
			ms, err := Measure(context.Background(), s, g, m, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if ms.Em != single || ms.Chunks != n {
				t.Errorf("workers=%d: %d chunks, e_m=%d; want %d chunks, e_m=%d", w, ms.Chunks, ms.Em, n, single)
			}
			seen[ms.Chunks] = true
		}
		if !seen[w] {
			seen[w] = true
			if got := chunked(t, s, g, m, w); got != single {
				t.Errorf("%d forced chunks: e_m=%d, single chunk %d", w, got, single)
			}
		}
	}
}

// FuzzEmChunks checks chunked e_m against the single chunk and the
// per-offset DFS on arbitrary short sequences: the first four bytes pick
// the alphabet, the gap, m and the chunk count, the rest spell the
// sequence.
func FuzzEmChunks(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 'A', 'C', 'G', 'T', 'A', 'C', 'G', 'T', 'A', 'A', 'C', 'C'})
	f.Add([]byte{1, 2, 5, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add([]byte{0, 0, 0, 7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		alpha := seq.DNA
		if data[0]&1 == 1 {
			alpha = seq.Protein
		}
		g := combinat.Gap{N: int(data[1] % 4)}
		g.M = g.N + int(data[1]/4%4) // W in 1..4
		m := 1 + int(data[2]%6)
		n := 1 + int(data[3]%8)
		body := data[4:min(len(data), 4+256)]
		text := make([]byte, len(body))
		for i, b := range body {
			text[i] = alpha.Symbol(int(b) % alpha.Size())
		}
		s, err := seq.New(alpha, "fuzz", string(text))
		if err != nil {
			t.Fatal(err)
		}
		want := dfsEm(s, g, m)
		if got := chunked(t, s, g, m, 1); got != want {
			t.Fatalf("%s g=%v m=%d: single-chunk e_m=%d, DFS %d", text, g, m, got, want)
		}
		if got := chunked(t, s, g, m, n); got != want {
			t.Fatalf("%s g=%v m=%d: %d chunks e_m=%d, DFS %d", text, g, m, n, got, want)
		}
	})
}

// TestMeasureBudget: a budget that admits some chunks' dense tables but
// not their column-list growth measures the exact e_m with fewer chunks
// (growth past the budget hands ranges back to running chunks), and the
// tracker ends where it started. internal/mine's budget tests cover the
// budgets too small for one chunk.
func TestMeasureBudget(t *testing.T) {
	s, err := gen.GenomeLike(4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 9, M: 12}
	const m, workers, base = 8, 4, 1000
	want, err := Em(s, g, m)
	if err != nil {
		t.Fatal(err)
	}
	probe := pil.NewMemTracker(nil)
	if _, err := Measure(context.Background(), s, g, m, Options{Workers: 1, Mem: probe}); err != nil {
		t.Fatal(err)
	}
	one := probe.High()
	fixed := (&sweepRun{s: s, g: g, m: m, kind: pickKind(s, g, m)}).fixedBytes()
	budget := one + fixed/2
	wantChunks := int(budget / fixed)
	if wantChunks >= workers || workers*int(one) <= int(budget) {
		t.Fatalf("budget %d admits %d chunks of %d workers; the workload cannot exercise the cut", budget, wantChunks, workers)
	}

	tr := pil.NewMemTracker(nil)
	tr.Charge(base)
	ms, err := Measure(context.Background(), s, g, m, Options{Workers: workers, Mem: tr, Budget: base + budget})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Em != want || ms.Chunks != wantChunks {
		t.Errorf("e_m=%d over %d chunks, want e_m=%d over %d", ms.Em, ms.Chunks, want, wantChunks)
	}
	if tr.Used() != base {
		t.Errorf("tracker holds %d bytes afterwards, want %d", tr.Used(), base)
	}
}

// TestMeasureCancelled: a context cancelled before the sweep stops every
// chunk at its first check, returns ctx.Err() and releases all scratch.
func TestMeasureCancelled(t *testing.T) {
	s, err := gen.GenomeLike(4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := pil.NewMemTracker(nil)
	_, err = Measure(ctx, s, combinat.Gap{N: 9, M: 12}, 8, Options{Workers: 3, Mem: tr})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr.Used() != 0 {
		t.Errorf("tracker holds %d bytes after the cancelled sweep", tr.Used())
	}
}
