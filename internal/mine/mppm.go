package mine

import (
	"context"
	"errors"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/embound"
	"permine/internal/obs"
	"permine/internal/pil"
	"permine/internal/seq"
)

// MPPm runs the paper's MPPm algorithm: MPP with the longest-pattern
// estimate n derived automatically from the e_m bound (Theorem 2 /
// Equation 5) instead of a user guess. Params.MaxLen is ignored;
// Params.EmOrder is the paper's m.
//
// e_m is measured before any level is mined, swept in Params.Workers
// parallel chunks under an "embound.em" span, cancellable through
// Params.Ctx and charged to the run's memory tracker. A cancelled sweep
// returns a *core.CancelledError at level StartLen; a sweep whose single
// chunk does not fit Params.MemoryBudget returns a
// *core.ResourceExhaustedError with an empty partial result.
func MPPm(s *seq.Sequence, params core.Params) (*core.Result, error) {
	p, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	ctx := p.Context()
	if err := ctx.Err(); err != nil {
		return nil, &core.CancelledError{Algorithm: core.AlgoMPPm, Level: p.StartLen, Err: err}
	}
	start := time.Now()
	counter, err := combinat.NewCounter(s.Len(), p.Gap)
	if err != nil {
		return nil, err
	}

	res := &core.Result{
		Algorithm: core.AlgoMPPm,
		Params:    p,
		SeqName:   s.Name(),
		SeqLen:    s.Len(),
		AutoN:     true,
		EmOrder:   p.EmOrder,
	}
	r := &runner{s: s, p: p, counter: counter, res: res}

	em, err := r.measureEm(ctx)
	if err != nil {
		var re *core.ResourceExhaustedError
		if errors.As(err, &re) {
			return finishLevelRun(res, start, err)
		}
		return nil, err
	}

	start3, err := pil.ScanKPacked(s, p.Gap, p.StartLen)
	if err != nil {
		return nil, err
	}
	r.n = estimateN(counter, p, start3, em)
	res.N, res.Em = r.n, em
	r.run(start3)
	if r.err != nil {
		return finishLevelRun(res, start, r.err)
	}

	res.SortPatterns()
	res.Elapsed = time.Since(start)
	return res, nil
}

// measureEm measures e_m for the run under an "embound.em" span, with
// the sweep's scratch charged to the run's tracker and budget, and maps
// a cancelled or over-budget sweep to the run's typed errors at level
// StartLen.
func (r *runner) measureEm(ctx context.Context) (int64, error) {
	p := r.p
	ectx, span := obs.Start(ctx, "embound.em")
	defer span.End()
	ms, err := embound.Measure(ectx, r.s, p.Gap, p.EmOrder, embound.Options{
		Workers: p.Workers,
		Mem:     r.tracker(),
		Budget:  p.MemoryBudget,
	})
	span.SetAttr("m", p.EmOrder)
	span.SetAttr("workers", r.workers())
	span.SetAttr("chunks", ms.Chunks)
	span.SetAttr("e_m", ms.Em)
	var be *embound.BudgetError
	switch {
	case err == nil:
		return ms.Em, nil
	case errors.As(err, &be):
		err = &core.ResourceExhaustedError{Algorithm: core.AlgoMPPm, Level: p.StartLen, Budget: be.Budget, Used: be.Used}
	case ctx.Err() != nil:
		err = r.cancelled(p.StartLen, ctx.Err())
	}
	span.RecordError(err)
	return 0, err
}

// estimateN implements MPPm's automatic choice of n: for every
// StartLen < k <= l1, length-k frequent patterns can exist only if some
// length-StartLen pattern has support at least
// λ'(k, k−StartLen) · ρs · N_StartLen (Theorem 2 applied to the pattern's
// StartLen-character prefix). n is the largest k passing the test.
func estimateN(counter *combinat.Counter, p core.Params, start []pil.CodeList, em int64) int {
	var maxSup int64
	for _, cl := range start {
		if cl.Sup > maxSup {
			maxSup = cl.Sup
		}
	}
	k0 := p.StartLen
	n := k0
	nk0 := counter.NlFloat(k0)
	for k := k0 + 1; k <= counter.L1(); k++ {
		th := embound.LambdaPrime(counter, k, k-k0, p.EmOrder, em) * p.MinSupport * nk0
		if core.Meets(maxSup, th) {
			n = k
		}
	}
	return n
}
