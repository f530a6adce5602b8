package mine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"permine/internal/combinat"
	"permine/internal/core"
	seqgen "permine/internal/gen"
	"permine/internal/pil"
)

// drainPools empties the slab pool (sync.Pool frees what sat idle through
// two GC cycles) and the scratch free list, so the next run starts cold.
func drainPools() {
	runtime.GC()
	runtime.GC()
	scratchFree.Lock()
	scratchFree.list = nil
	scratchFree.Unlock()
}

// resultBytes renders everything a run mined — patterns, n, e_m and the
// per-level counts — minus wall-clock timings, for byte comparison.
func resultBytes(t *testing.T, res *core.Result) string {
	t.Helper()
	levels := append([]core.LevelMetrics(nil), res.Levels...)
	for i := range levels {
		levels[i].Elapsed, levels[i].GenElapsed, levels[i].CountElapsed = 0, 0, 0
	}
	b, err := json.Marshal(struct {
		Patterns  []core.Pattern
		Levels    []core.LevelMetrics
		N         int
		Em        int64
		Truncated bool
	}{res.Patterns, levels, res.N, res.Em, res.Truncated})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// memReading is a run's tracker read at one Progress report.
type memReading struct {
	level      int
	used, high int64
}

// trackedMPPm runs MPPm under its own tracker and records the tracker at
// every Progress report.
func trackedMPPm(t *testing.T, p core.Params) (*core.Result, []memReading) {
	t.Helper()
	s, err := seqgen.GenomeLike(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	p.Mem = pil.NewMemTracker(nil)
	var readings []memReading
	p.Progress = func(lm core.LevelMetrics) {
		readings = append(readings, memReading{lm.Level, p.Mem.Used(), p.Mem.High()})
	}
	res, err := MPPm(s, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, readings
}

// TestPooledRunMatchesCold: with one worker (so the arena fill order is
// fixed), an MPPm run that draws its slabs and scratch from the pools
// mines byte-identically to a cold run, and its tracker reads the same
// Used and High at every level: a pooled slab is charged exactly as a
// fresh one.
func TestPooledRunMatchesCold(t *testing.T) {
	p := core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.00003, EmOrder: 6, Workers: 1}
	drainPools()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the pool warm between the runs
	cold, coldMem := trackedMPPm(t, p)
	scratchFree.Lock()
	pooled := len(scratchFree.list)
	scratchFree.Unlock()
	if pooled != 1 {
		t.Fatalf("free list holds %d scratch objects after one run, want 1", pooled)
	}
	warm, warmMem := trackedMPPm(t, p)
	if resultBytes(t, cold) != resultBytes(t, warm) {
		t.Error("warm-pool run mined a different result than the cold run")
	}
	if fmt.Sprint(coldMem) != fmt.Sprint(warmMem) {
		t.Errorf("tracker readings per level differ:\ncold %v\nwarm %v", coldMem, warmMem)
	}
	if len(coldMem) < 3 || coldMem[len(coldMem)-1].high == 0 {
		t.Fatalf("workload too small to exercise the arenas: %v", coldMem)
	}
}

// TestConcurrentRunsShareThePools: MPP and MPPm runs that take slabs and
// scratch from the shared pools concurrently mine byte-identically to
// the same runs made one after another.
func TestConcurrentRunsShareThePools(t *testing.T) {
	s, err := seqgen.GenomeLike(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		name string
		run  func() (*core.Result, error)
	}
	var jobs []job
	for i, g := range []combinat.Gap{{N: 9, M: 12}, {N: 2, M: 5}} {
		p := core.Params{Gap: g, MinSupport: 0.0001, EmOrder: 5, MaxLen: 8, Workers: 2}
		jobs = append(jobs,
			job{fmt.Sprintf("MPP/%d", i), func() (*core.Result, error) { return MPP(s, p) }},
			job{fmt.Sprintf("MPPm/%d", i), func() (*core.Result, error) { return MPPm(s, p) }})
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		res, err := j.run()
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		want[i] = resultBytes(t, res)
	}
	const rounds = 3
	got := make([]*core.Result, rounds*len(jobs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k], errs[k] = jobs[k%len(jobs)].run()
		}(k)
	}
	wg.Wait()
	for k, res := range got {
		j := jobs[k%len(jobs)]
		if errs[k] != nil {
			t.Fatalf("%s (concurrent): %v", j.name, errs[k])
		}
		if resultBytes(t, res) != want[k%len(jobs)] {
			t.Errorf("%s: concurrent run differs from the sequential one", j.name)
		}
	}
}

// TestAbortedRunsReleaseScratch: a cancelled and a budget-aborted run
// both give their scratch back to the free list with every arena
// released (its slabs returned to the pool) and no reference left into
// the run's lists.
func TestAbortedRunsReleaseScratch(t *testing.T) {
	s, err := seqgen.GenomeLike(20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := func() core.Params {
		ctx, cancel := context.WithCancel(context.Background())
		p := budgetParams()
		p.Ctx = ctx
		levels := 0
		p.Progress = func(core.LevelMetrics) {
			if levels++; levels == 2 {
				cancel()
			}
		}
		return p
	}
	budgeted := func() core.Params {
		p := budgetParams()
		p.MemoryBudget = 1 << 20
		return p
	}
	for _, tc := range []struct {
		name   string
		params func() core.Params
		want   any
	}{
		{"cancelled", cancelled, new(*core.CancelledError)},
		{"budget", budgeted, new(*core.ResourceExhaustedError)},
	} {
		drainPools()
		_, err := MPP(s, tc.params())
		if err == nil || !errors.As(err, tc.want) {
			t.Fatalf("%s: err = %v, want %T", tc.name, err, tc.want)
		}
		scratchFree.Lock()
		list := scratchFree.list
		scratchFree.Unlock()
		if len(list) != 1 {
			t.Fatalf("%s: free list holds %d scratch objects, want the run's 1", tc.name, len(list))
		}
		sc := list[0]
		if len(sc.arenas) != 2*budgetParams().Workers {
			t.Fatalf("%s: scratch has %d arenas", tc.name, len(sc.arenas))
		}
		for i := range sc.arenas {
			if c := sc.arenas[i].Cap(); c != 0 {
				t.Errorf("%s: arena %d still holds %d entries", tc.name, i, c)
			}
		}
		for b, hat := range sc.hatBuf {
			for _, e := range hat[:cap(hat)] {
				if e.list != nil || e.chars != "" {
					t.Fatalf("%s: hat buffer %d still references a list or pattern", tc.name, b)
				}
			}
		}
		for _, c := range sc.joined[:cap(sc.joined)] {
			if c.list != nil {
				t.Fatalf("%s: joined buffer still references a list", tc.name)
			}
		}
	}
}

// TestPooledRunAllocations is the allocation gate: with the GC off (so
// nothing empties the slab pool), the second of two identical MPPm runs
// allocates at most a fifth of what the first, cold one does, because it
// reuses the first run's slabs and scratch.
func TestPooledRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random quarter of sync.Pool puts")
	}
	s, err := seqgen.GenomeLike(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.00003, EmOrder: 8, Workers: 2}
	drainPools()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	alloc := func() uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := MPPm(s, p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	cold, warm := alloc(), alloc()
	t.Logf("cold run %d B, warm run %d B (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if warm*5 > cold {
		t.Errorf("warm run allocated %d B, more than a fifth of the cold run's %d B", warm, cold)
	}
}
