package mine

import (
	"context"
	"errors"
	"testing"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/embound"
	seqgen "permine/internal/gen"
	"permine/internal/obs"
	"permine/internal/pil"
	"permine/internal/seq"
)

// budgetParams is a workload big enough that a tight memory budget bites
// mid-run: a genome-like sequence under a flexible gap, mined from level
// 3 with several counting levels ahead of it.
func budgetParams() core.Params {
	return core.Params{Gap: combinat.Gap{N: 2, M: 6}, MinSupport: 0.0002, Workers: 4}
}

// TestMemoryBudgetPartialResult: an over-budget MPP run terminates with a
// typed *core.ResourceExhaustedError and a partial result whose completed
// levels — metrics and emitted patterns both — are byte-identical to the
// same levels of an unconstrained run.
func TestMemoryBudgetPartialResult(t *testing.T) {
	s, err := seqgen.GenomeLike(20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MPP(s, budgetParams())
	if err != nil {
		t.Fatal(err)
	}

	tight := budgetParams()
	tight.MemoryBudget = 1 << 20
	part, err := MPP(s, tight)
	var re *core.ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("tight-budget MPP error = %v, want *core.ResourceExhaustedError", err)
	}
	if !errors.Is(err, core.ErrMemoryExceeded) {
		t.Errorf("error does not unwrap to ErrMemoryExceeded: %v", err)
	}
	if re.Used <= re.Budget {
		t.Errorf("error reports Used %d <= Budget %d", re.Used, re.Budget)
	}
	if part == nil || !part.Truncated {
		t.Fatalf("partial result = %+v, want non-nil with Truncated", part)
	}
	if len(part.Levels) == 0 || len(part.Levels) >= len(full.Levels) {
		t.Fatalf("partial completed %d of %d levels; the budget did not abort mid-run",
			len(part.Levels), len(full.Levels))
	}
	for i, lm := range part.Levels {
		want := full.Levels[i]
		if lm.Level != want.Level || lm.Candidates != want.Candidates ||
			lm.Frequent != want.Frequent || lm.Kept != want.Kept {
			t.Errorf("level %d diverged from the unconstrained run:\n got %+v\nwant %+v", i, lm, want)
		}
	}
	maxLen := part.Levels[len(part.Levels)-1].Level
	var want []core.Pattern
	for _, p := range full.Patterns {
		if len(p.Chars) <= maxLen {
			want = append(want, p)
		}
	}
	if len(part.Patterns) != len(want) {
		t.Fatalf("partial emitted %d patterns, want the %d full-run patterns of length <= %d",
			len(part.Patterns), len(want), maxLen)
	}
	for i := range want {
		if part.Patterns[i].Chars != want[i].Chars || part.Patterns[i].Support != want[i].Support {
			t.Errorf("pattern %d: got %q/%d, want %q/%d", i,
				part.Patterns[i].Chars, part.Patterns[i].Support, want[i].Chars, want[i].Support)
		}
	}
}

// TestMemoryBudgetMPPmAndAdaptive: the automatic-n and adaptive entry
// points ship the same partial-result contract. MPPm's budget leaves room
// for one e_m chunk (about 1.6 MB here; e_m scratch is charged too), so
// it is the level loop that runs out.
func TestMemoryBudgetMPPmAndAdaptive(t *testing.T) {
	s, err := seqgen.GenomeLike(20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	tight := budgetParams()
	tight.MemoryBudget = 4 << 20

	res, err := MPPm(s, tight)
	if !errors.Is(err, core.ErrMemoryExceeded) {
		t.Fatalf("MPPm error = %v, want ErrMemoryExceeded", err)
	}
	if res == nil || !res.Truncated || len(res.Levels) == 0 {
		t.Fatalf("MPPm partial result = %+v", res)
	}

	tight.MemoryBudget = 1 << 20

	res, err = Adaptive(s, tight)
	if !errors.Is(err, core.ErrMemoryExceeded) {
		t.Fatalf("Adaptive error = %v, want ErrMemoryExceeded", err)
	}
	if res == nil || !res.Truncated || res.Algorithm != core.AlgoAdaptive || len(res.Rounds) == 0 {
		t.Fatalf("Adaptive partial result = %+v", res)
	}
}

// TestMemoryBudgetEnumerate: the enumeration baseline charges its
// retained heap lists and aborts between levels with the typed error.
func TestMemoryBudgetEnumerate(t *testing.T) {
	s, err := seqgen.GenomeLike(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 2, M: 6}, MinSupport: 0.001, MemoryBudget: 1 << 10}
	res, err := Enumerate(s, p)
	var re *core.ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("Enumerate error = %v, want *core.ResourceExhaustedError", err)
	}
	if res == nil || !res.Truncated || len(res.Levels) == 0 {
		t.Fatalf("Enumerate partial result = %+v", res)
	}
}

// TestMemoryBudgetSharedTracker: a caller-installed tracker sees the
// run's charges and propagates them to its parent, and a second run on
// the same tracker accumulates (the governor's global view).
func TestMemoryBudgetSharedTracker(t *testing.T) {
	s, err := seqgen.GenomeLike(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	root := pil.NewMemTracker(nil)
	p := budgetParams()
	p.Mem = pil.NewMemTracker(root)
	if _, err := MPP(s, p); err != nil {
		t.Fatal(err)
	}
	if p.Mem.Used() == 0 {
		t.Fatal("caller tracker saw no charges from the run")
	}
	if root.Used() != p.Mem.Used() || root.High() != p.Mem.High() {
		t.Fatalf("parent tracker diverged: root %d/%d vs child %d/%d",
			root.Used(), root.High(), p.Mem.Used(), p.Mem.High())
	}
}

// emParams is an MPPm workload whose e_m scratch (m = 9: a 2 MiB dense
// table per chunk plus column lists) dominates a light level loop, so a
// budget can sit between one chunk and all of them.
func emParams() core.Params {
	return core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.003, EmOrder: 9, Workers: 4}
}

// emScratch returns the e_m scratch high-water of the workload swept
// with the given number of workers.
func emScratch(t *testing.T, s *seq.Sequence, p core.Params, workers int) int64 {
	t.Helper()
	tr := pil.NewMemTracker(nil)
	if _, err := embound.Measure(context.Background(), s, p.Gap, p.EmOrder, embound.Options{Workers: workers, Mem: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Used() != 0 {
		t.Fatalf("e_m with %d workers left %d bytes charged", workers, tr.Used())
	}
	return tr.High()
}

// TestMemoryBudgetAbortsInsideEm: a budget below one e_m chunk's scratch
// stops MPPm inside the sweep with a *core.ResourceExhaustedError at level
// StartLen and an empty partial result, both when the chunk's dense
// tables alone do not fit (refused up front) and when its column lists
// outgrow the budget mid-sweep. Either way the tracker is back to its
// pre-e_m value afterwards.
func TestMemoryBudgetAbortsInsideEm(t *testing.T) {
	s, err := seqgen.GenomeLike(4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := emParams()
	one := emScratch(t, s, p, 1)
	const pre = 12345
	for _, tc := range []struct {
		name    string
		budget  int64
		workers int
	}{
		{"tables", pre + 1<<10, p.Workers},
		{"lists", pre + one - 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := p
			q.Workers = tc.workers
			q.MemoryBudget = tc.budget
			q.Mem = pil.NewMemTracker(nil)
			q.Mem.Charge(pre)
			res, err := MPPm(s, q)
			var re *core.ResourceExhaustedError
			if !errors.As(err, &re) || !errors.Is(err, core.ErrMemoryExceeded) {
				t.Fatalf("err = %v, want *core.ResourceExhaustedError", err)
			}
			if re.Level != core.DefaultStartLen {
				t.Errorf("aborted at level %d, want StartLen (inside e_m)", re.Level)
			}
			if re.Used <= re.Budget {
				t.Errorf("error reports Used %d <= Budget %d", re.Used, re.Budget)
			}
			if res == nil || !res.Truncated || len(res.Levels) != 0 || len(res.Patterns) != 0 {
				t.Fatalf("partial result = %+v, want truncated with zero levels", res)
			}
			if got := q.Mem.Used(); got != pre {
				t.Errorf("tracker holds %d bytes after the abort, want the pre-e_m %d", got, pre)
			}
		})
	}
}

// TestMemoryBudgetFewerEmChunks: a budget that fits one e_m chunk but not
// Workers of them runs e_m with fewer chunks and mines exactly what an
// unbudgeted run mines. The tracker is back to its pre-e_m value when
// the first level is reported, and e_m's high-water stayed within the
// budget's room for it.
//
// The budget is derived from e_m's one-chunk scratch alone, never from
// the level loop's arena bytes: those depend on how work stealing spreads
// the joins over the workers' arenas, and a budget built on them let the
// cut admit every chunk on some schedules. A pre-charge far above any
// arena growth is held through the sweep, leaving e_m exactly one chunk
// and a quarter of room, and credited back at the first level report, so
// the level loop never meets the budget.
func TestMemoryBudgetFewerEmChunks(t *testing.T) {
	s, err := seqgen.GenomeLike(4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := emParams()
	one := emScratch(t, s, p, 1)

	want, err := MPPm(s, p)
	if err != nil {
		t.Fatal(err)
	}
	room := one + one/4

	const pre = 1 << 40
	q := p
	q.MemoryBudget = pre + room
	q.Mem = pil.NewMemTracker(nil)
	q.Mem.Charge(pre)
	var atFirst, highFirst int64 = -1, -1
	q.Progress = func(core.LevelMetrics) {
		if atFirst < 0 {
			atFirst, highFirst = q.Mem.Used(), q.Mem.High()
			q.Mem.Charge(-pre)
		}
	}
	var spans obs.Collector
	ctx, root := obs.NewTracer(&spans).Start(context.Background(), "test")
	q.Ctx = ctx
	got, err := MPPm(s, q)
	root.End()
	if err != nil {
		t.Fatalf("budgeted run: %v", err)
	}
	em := emSpanAttrs(t, spans.Spans())
	if em["chunks"] >= p.Workers || em["workers"] != p.Workers || em["m"] != p.EmOrder || int64(em["e_m"]) != got.Em {
		t.Errorf("embound.em span attrs %v: want fewer than %d chunks, workers=%d, m=%d, e_m=%d",
			em, p.Workers, p.Workers, p.EmOrder, got.Em)
	}
	t.Logf("e_m scratch: one chunk %d B; room %d B; budgeted e_m high-water %d B in %d chunks",
		one, room, highFirst-pre, em["chunks"])
	if got.Em != want.Em || got.N != want.N {
		t.Errorf("budgeted e_m=%d n=%d, unbudgeted e_m=%d n=%d", got.Em, got.N, want.Em, want.N)
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("budgeted run mined %d patterns, unbudgeted %d", len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Patterns {
		if got.Patterns[i] != want.Patterns[i] {
			t.Fatalf("pattern %d: budgeted %+v, unbudgeted %+v", i, got.Patterns[i], want.Patterns[i])
		}
	}
	if atFirst != pre {
		t.Errorf("tracker held %d bytes when the first level was reported, want the pre-e_m %d", atFirst, pre)
	}
	if highFirst-pre > room+one {
		t.Errorf("e_m charged up to %d bytes, past its %d-byte room by more than one chunk (%d)", highFirst-pre, room, one)
	}
	if highFirst-pre < one/2 {
		t.Errorf("e_m charged only %d bytes; one chunk takes %d", highFirst-pre, one)
	}
}

// emSpanAttrs returns the integer attributes of the one "embound.em" span
// among spans.
func emSpanAttrs(t *testing.T, spans []obs.SpanData) map[string]int {
	t.Helper()
	var out map[string]int
	for _, sd := range spans {
		if sd.Name != "embound.em" {
			continue
		}
		if out != nil {
			t.Fatal("more than one embound.em span")
		}
		out = map[string]int{}
		for _, a := range sd.Attrs {
			switch v := a.Value.(type) {
			case int:
				out[a.Key] = v
			case int64:
				out[a.Key] = int(v)
			}
		}
	}
	if out == nil {
		t.Fatal("no embound.em span recorded")
	}
	return out
}
