package embound

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"unsafe"

	"permine/internal/combinat"
	"permine/internal/pil"
	"permine/internal/seq"
)

// Measure splits the start offsets [0, L) into chunks and sweeps them in
// parallel; e_m is the maximum of the per-chunk maxima of K_r. Every
// kernel variant (dense sweep, merge sweep, per-offset DFS) is a function
// of one offset range, and the whole-sequence sweep is the single chunk
// [0, L), so a one-worker call and a chunked call run the same code.
//
// A chunk [a, b) of a sweep variant starts its right-to-left pass at
// min(L−1, b−2+maxspan(m+1)): every cnt_k column it reads for a start
// offset p < b then only depends on positions the pass has covered, so
// each K_p it reports is exact and the chunked maximum equals the
// whole-sequence one by construction. Offsets p ≥ b in that overlap only
// feed the columns; their K_p belong to the next chunk.
//
// The number of chunks is min(Workers, L / (chunkSpans·maxspan(m+1))),
// further lowered so that every chunk's fixed scratch fits the memory
// budget next to what Mem already holds. ctx is checked in every chunk
// every checkStride offsets; a cancelled sweep returns ctx.Err().
func Measure(ctx context.Context, s *seq.Sequence, g combinat.Gap, m int, o Options) (Measurement, error) {
	if m < 1 {
		return Measurement{}, fmt.Errorf("embound: m=%d must be >= 1", m)
	}
	if err := g.Validate(); err != nil {
		return Measurement{}, err
	}
	span := combinat.MaxSpan(m+1, g)
	return measure(ctx, s, g, m, o, max(1, min(o.Workers, s.Len()/(chunkSpans*span))))
}

// measure is Measure on validated arguments with the chunk count n
// requested before the budget cut, so tests can force chunks shorter
// than the overlap.
func measure(ctx context.Context, s *seq.Sequence, g combinat.Gap, m int, o Options, n int) (Measurement, error) {
	r := &sweepRun{
		ctx:    ctx,
		s:      s,
		g:      g,
		m:      m,
		kind:   pickKind(s, g, m),
		span:   combinat.MaxSpan(m+1, g),
		mem:    o.Mem,
		budget: o.Budget,
		base:   o.Mem.Used(),
	}
	L := s.Len()
	if o.Budget > 0 {
		fixed := r.fixedBytes()
		if r.base+fixed > o.Budget {
			return Measurement{}, &BudgetError{Budget: o.Budget, Used: r.base + fixed}
		}
		n = min(n, int((o.Budget-r.base)/max(fixed, 1)))
	}
	for i := n - 1; i >= 0; i-- { // popped from the end: chunk 0 first
		r.pending = append(r.pending, [2]int{i * L / n, (i + 1) * L / n})
	}
	r.active = n

	workers := make([]worker, n)
	labels := pprof.Labels("permine_phase", "em")
	sweep := func(w *worker) {
		w.run = r
		pprof.Do(ctx, labels, func(context.Context) { w.loop() })
	}
	if n == 1 {
		sweep(&workers[0])
	} else {
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				sweep(w)
			}(&workers[i])
		}
		wg.Wait()
	}
	if r.stop.Load() {
		if r.err != nil {
			return Measurement{}, r.err
		}
		return Measurement{}, ctx.Err()
	}
	var em int64
	for i := range workers {
		em = max(em, workers[i].best)
	}
	if em == 0 {
		// No length-(m+1) offset sequence fits anywhere; the bound
		// degenerates. Treat as 1 so λ' stays finite and valid
		// (W^m/e_m >= 1 still holds trivially because no length-(m+1)
		// pattern occurs at all).
		em = 1
	}
	return Measurement{Em: em, Chunks: n}, nil
}

// chunkSpans is the shortest chunk, in units of maxspan(m+1), that Measure
// splits off. A chunk re-sweeps up to maxspan(m+1) offsets past its end,
// so at 8 the overlap adds at most 1/8 to a chunk's work, and inputs
// shorter than 16 spans stay in one chunk.
const chunkSpans = 8

// checkStride is the number of start offsets a sweep advances between
// context and budget checks. The DFS fallback checks at every offset,
// since one offset alone walks up to W^m paths.
const checkStride = 64

// Options configures Measure. The zero value sweeps on the calling
// goroutine and tracks no memory.
type Options struct {
	// Workers bounds the chunks swept in parallel, one goroutine each.
	// Zero or one sweeps the whole sequence on the calling goroutine.
	// The measured e_m is the same for every value.
	Workers int
	// Mem receives the scratch bytes of every chunk (dense tables and
	// column-list growth) while it runs; they are credited back before
	// Measure returns. Nil tracks nothing.
	Mem *pil.MemTracker
	// Budget, when positive, caps Mem.Used(). Chunks that would not fit
	// it are not split off; a chunk whose growth pushes Mem over it hands
	// its range back to a running chunk. Measure fails with a
	// *BudgetError only when one chunk's scratch alone does not fit.
	Budget int64
}

// Measurement is the outcome of Measure.
type Measurement struct {
	// Em is e_m = max over r of K_r (1 when no offset sequence fits).
	Em int64
	// Chunks is the number of offset ranges swept in parallel.
	Chunks int
}

// BudgetError reports an e_m sweep stopped because a single chunk's
// scratch does not fit the memory budget.
type BudgetError struct {
	// Budget is Options.Budget.
	Budget int64
	// Used is the bytes charged, counting the scratch that did not fit.
	Used int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("embound: e_m scratch needs %d bytes of a %d-byte budget", e.Used, e.Budget)
}

// kind selects the kernel variant for a measurement.
type kind int

const (
	// kindDense is the sweep with dense epoch-stamped accumulators
	// (|Σ|^m <= 2^24 and W^m < 2^31, covering DNA at m = 10).
	kindDense kind = iota
	// kindMerge is the sweep merging code-sorted lists, for code spaces
	// too large for dense tables.
	kindMerge
	// kindDFS is the per-offset walk, for pattern codes that do not fit
	// a uint64.
	kindDFS
)

func pickKind(s *seq.Sequence, g combinat.Gap, m int) kind {
	size := float64(s.Alphabet().Size())
	switch {
	case float64(m+1)*math.Log2(size) >= 62:
		return kindDFS
	case math.Pow(size, float64(m)) <= 1<<24 && math.Pow(float64(g.W()), float64(m)) < math.MaxInt32:
		return kindDense
	default:
		return kindMerge
	}
}

// sweepRun is the state shared by the chunks of one Measure call.
type sweepRun struct {
	ctx    context.Context
	s      *seq.Sequence
	g      combinat.Gap
	m      int
	kind   kind
	span   int // maxspan(m+1): the overlap a sweep chunk re-reads
	mem    *pil.MemTracker
	budget int64
	base   int64 // mem.Used() before the sweep

	stop atomic.Bool // set on cancellation or a budget failure

	mu      sync.Mutex
	pending [][2]int // offset ranges not yet claimed
	active  int      // workers holding scratch
	err     error    // the budget failure, if any
}

// top is where the pass of a sweep chunk ending at offset b starts.
func (r *sweepRun) top(b int) int {
	return min(r.s.Len()-1, b-2+r.span)
}

// fixedBytes is the scratch one worker allocates before sweeping
// anything: dense tables and column headers. List and map growth is
// charged as it happens (the DFS fallback's codes are too wide for
// kounter's dense table, so it starts from an empty map).
func (r *sweepRun) fixedBytes() int64 {
	const header = int64(unsafe.Sizeof([]byte(nil)))
	cols := int64(r.g.M+2) * int64(r.m) * header
	switch r.kind {
	case kindDense:
		codeSpace := int64(math.Pow(float64(r.s.Alphabet().Size()), float64(r.m)))
		return codeSpace*8 + touchedInit*4 + cols
	case kindMerge:
		return cols
	default:
		return 0
	}
}

// next claims an unswept offset range. A worker that finds none leaves
// the active set.
func (r *sweepRun) next() ([2]int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending) == 0 {
		r.active--
		return [2]int{}, false
	}
	rng := r.pending[len(r.pending)-1]
	r.pending = r.pending[:len(r.pending)-1]
	return rng, true
}

// yield hands w's current range back to the pending set and frees w's
// scratch, unless w is the last active worker.
func (r *sweepRun) yield(w *worker) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active <= 1 {
		return false
	}
	r.active--
	w.release()
	r.pending = append(r.pending, w.cur)
	return true
}

func (r *sweepRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.stop.Store(true)
}

// worker sweeps the ranges it claims with one set of scratch, charged to
// the run's tracker while held.
type worker struct {
	run     *sweepRun
	cur     [2]int // the range being swept
	best    int64  // largest K_r seen in any swept range
	charged int64  // bytes currently charged for this worker's scratch

	dense *denseScratch
	merge *mergeScratch
	dfs   *dfsScratch
}

// loop sweeps claimed ranges until none are left or the run stops.
func (w *worker) loop() {
	defer w.release()
	for {
		rng, ok := w.run.next()
		if !ok {
			return
		}
		w.cur = rng
		var done bool
		switch w.run.kind {
		case kindDense:
			done = w.emSweepDense(rng[0], rng[1])
		case kindMerge:
			done = w.emSweepMerge(rng[0], rng[1])
		default:
			done = w.emDFS(rng[0], rng[1])
		}
		if !done || !w.fits() {
			return
		}
	}
}

// check reports whether the sweep may continue: the run has not stopped,
// ctx is live, and the tracker is within budget. Over budget, a worker
// whose own scratch fits yields its range to the other active workers;
// one whose scratch alone exceeds the budget fails the run.
func (w *worker) check() bool {
	r := w.run
	if r.stop.Load() {
		return false
	}
	if r.ctx.Err() != nil {
		r.stop.Store(true)
		return false
	}
	if r.budget > 0 && r.mem.Used() > r.budget {
		if !w.fits() || r.yield(w) {
			return false
		}
	}
	return true
}

// fits fails the run when the worker's own scratch exceeds the budget.
// loop also checks it after every range, so growth in a range's last
// offsets cannot slip past the stride.
func (w *worker) fits() bool {
	r := w.run
	if r.budget > 0 && r.base+w.charged > r.budget {
		r.fail(&BudgetError{Budget: r.budget, Used: r.base + w.charged})
		return false
	}
	return true
}

// charge accounts n more scratch bytes to the worker and the tracker.
func (w *worker) charge(n int64) {
	w.charged += n
	w.run.mem.Charge(n)
}

// grew charges the growth of a scratch list from capacity before to
// after, elemSize bytes per element.
func (w *worker) grew(before, after int, elemSize int64) {
	if after != before {
		w.charge(int64(after-before) * elemSize)
	}
}

// release drops the worker's scratch and credits its bytes back.
func (w *worker) release() {
	w.run.mem.Charge(-w.charged)
	w.charged = 0
	w.dense, w.merge, w.dfs = nil, nil, nil
}
