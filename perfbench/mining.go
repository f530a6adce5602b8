package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"permine"
	"permine/internal/embound"
	"permine/internal/gen"
	"permine/internal/pil"
	"permine/internal/query"
)

// mineSpec is one library workload: a closed loop of permine.Mine calls,
// one at a time, on a GenomeLike sequence made from the seed.
type mineSpec struct {
	algo   permine.Algorithm
	length int
	params permine.Params
	// The completeness check mines this prefix and compares lengths up to
	// oracleMaxLen with the brute-force oracle.
	prefix, oracleMaxLen int
	// dpSample patterns of each run are re-counted by the reference DP.
	dpSample int
}

func miningSpec(name string, tiny bool) mineSpec {
	workers := runtime.NumCPU()
	switch name {
	case "mppm-genome":
		sp := mineSpec{
			algo:   permine.AlgoMPPm,
			length: 10_000,
			params: permine.Params{Gap: permine.Gap{N: 9, M: 12}, MinSupport: 0.00003, EmOrder: 8, Workers: workers},
			prefix: 500, oracleMaxLen: 6, dpSample: 1000,
		}
		if tiny {
			sp.length = 1_500
		}
		return sp
	default: // "mpp-narrow-1m5"
		sp := mineSpec{
			algo:   permine.AlgoMPP,
			length: 1_500_000,
			params: permine.Params{Gap: permine.Gap{N: 9, M: 10}, StartLen: 1, MaxLen: 4, MinSupport: 0.0001, Workers: workers},
			prefix: 2_000, oracleMaxLen: 4, dpSample: 200,
		}
		if tiny {
			sp.length = 30_000
		}
		return sp
	}
}

// genomeData generates the workload's input text outside any timing.
func genomeData(length int, seed uint64) (string, error) {
	s, err := gen.GenomeLike(length, seed)
	if err != nil {
		return "", err
	}
	return s.Data(), nil
}

const (
	setupReps = 21
	setupSpan = 2 * time.Millisecond
)

// buildSequence is the set-up a library user pays once per input: validate
// and encode the text, and build the lazy per-symbol bitmaps.
func buildSequence(data string) (*permine.Sequence, error) {
	s, err := permine.NewDNASequence("bench", data)
	if err != nil {
		return nil, err
	}
	s.SymbolBitmaps()
	return s, nil
}

// collect runs a full collection between measured calls, so each call
// starts from the same heap and one call's garbage is not charged to the
// next call's time or peak memory.
func collect() { runtime.GC() }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// callTrace is what one traced Mine call's spans and counters yield.
type callTrace struct {
	prelevel, levels, levelMax, post float64
	memHigh                          int64
}

// mineCall runs one permine.Mine call. With a tracer it records the call
// span and, from Params.Progress timestamps, the pre-level, per-level and
// post-level child spans.
func mineCall(tr *tracer, sp mineSpec, s *permine.Sequence) (*permine.Result, time.Duration, *callTrace, error) {
	p := sp.params
	var stamps []time.Time
	var mem *pil.MemTracker
	if tr != nil {
		mem = pil.NewMemTracker(nil)
		p.Mem = mem
		p.Progress = func(permine.LevelMetrics) { stamps = append(stamps, time.Now()) }
	}
	t0 := time.Now()
	res, err := permine.Mine(context.Background(), sp.algo, s, p)
	t1 := time.Now()
	if err != nil || tr == nil {
		return res, t1.Sub(t0), nil, err
	}
	op := tr.op()
	root := tr.add(op, 0, "mine", t0, t1)
	ct := &callTrace{memHigh: mem.High()}
	if len(stamps) == 0 {
		stamps = []time.Time{t1}
	}
	tr.add(op, root, "mine.prelevel", t0, stamps[0])
	ct.prelevel = stamps[0].Sub(t0).Seconds()
	for i := 1; i < len(stamps); i++ {
		tr.add(op, root, "mine.level", stamps[i-1], stamps[i])
		ct.levelMax = max(ct.levelMax, stamps[i].Sub(stamps[i-1]).Seconds())
	}
	ct.levels = stamps[len(stamps)-1].Sub(stamps[0]).Seconds()
	tr.add(op, root, "mine.post", stamps[len(stamps)-1], t1)
	ct.post = t1.Sub(stamps[len(stamps)-1]).Seconds()
	return res, t1.Sub(t0), ct, nil
}

func runMining(cfg config, tr *tracer) (*outcome, error) {
	sp := miningSpec(cfg.workload, cfg.tiny)
	data, err := genomeData(sp.length, cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]metric{}, detail: map[string]any{}}

	// Set-up, several times; the median is setup_s. A 10 kb build takes
	// tens of microseconds, below the clock's steady resolution under
	// load, so each sample repeats the build until it spans setupSpan and
	// reports the time per build.
	var setup sample
	t0 := time.Now()
	s, err := buildSequence(data)
	if err != nil {
		return nil, err
	}
	reps := max(1, int(setupSpan/time.Since(t0)))
	for i := 0; i < setupReps; i++ {
		collect()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if s, err = buildSequence(data); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		tr.add(tr.op(), 0, "seq.build", t0, t1)
		setup = append(setup, t1.Sub(t0).Seconds()/float64(reps))
	}

	// Warm up: the first call pays one-time runtime costs (heap growth,
	// page faults) that a long-running caller does not.
	collect()
	if _, _, _, err := mineCall(nil, sp, s); err != nil {
		return nil, fmt.Errorf("warm-up call: %w", err)
	}

	// The measured closed loop. A traced run alternates untraced and
	// traced calls so their difference is the tracing overhead.
	var times, traced, untraced, allocMB sample
	var cts []*callTrace
	var last *permine.Result
	digests := map[string]int{}
	h0 := readHostCPU()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	minCalls := int64(3)
	if tr != nil {
		minCalls = 4 // at least two traced and two untraced
	}
	for i := 0; time.Now().Before(deadline) || out.attempted < minCalls; i++ {
		collect()
		callTr := tr
		if i%2 == 0 {
			callTr = nil
		}
		a0 := totalAlloc()
		out.attempted++
		res, d, ct, err := mineCall(callTr, sp, s)
		a1 := totalAlloc()
		if err != nil {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("call %d: %v", i, err))
			continue
		}
		times = append(times, d.Seconds())
		allocMB = append(allocMB, float64(a1-a0)/(1<<20))
		if tr != nil {
			if callTr != nil {
				traced = append(traced, d.Seconds())
				cts = append(cts, ct)
			} else {
				untraced = append(untraced, d.Seconds())
			}
		}
		digests[digest(res.Patterns)]++
		last = res
	}
	peakRSS := maxRSSMB()
	steal := stealShare(h0, readHostCPU())
	if last == nil {
		return nil, fmt.Errorf("no call succeeded: %v", out.problems)
	}

	// Correctness, outside timing. Every call returned the same result
	// (checked), so a wrong result makes every call wrong.
	checkMined(cfg, sp, data, last, digests, out)
	if len(out.problems) > 0 {
		out.failed = out.attempted
	}

	out.detail["mine_s"] = times.summary()
	out.detail["mine_s_samples"] = times
	out.detail["patterns"] = len(last.Patterns)
	out.detail["levels"] = len(last.Levels)
	out.detail["n"] = last.N
	out.detail["setup_s"] = setup
	out.detail["steal_share"] = steal
	if !cfg.trace {
		keep := 1 - steal
		out.metrics["latency_p50_ms"] = metric{1000 * times.median() * keep, "ms"}
		out.metrics["latency_tail_ms"] = metric{1000 * times.tail() * keep, "ms"}
		out.metrics["throughput_per_s"] = metric{float64(len(times)) / (times.sum() * keep), "1/s"}
		out.metrics["alloc_mb_per_mine"] = metric{allocMB.median(), "MB"}
		out.metrics["peak_rss_mb"] = metric{peakRSS, "MB"}
		out.metrics["setup_s"] = metric{setup.median(), "s"}
		out.metrics["success_frac"] = metric{successFrac(out), "ratio"}
		return out, nil
	}

	lm := zeroLayerMetrics()
	lm["seq.build_s"] = metric{setup.median(), "s"}
	levelCounters(last, lm)
	callLayers(cts, lm)
	lm["trace.overhead"] = metric{traced.median() - untraced.median(), "s"}
	lm["error_rate"] = metric{1 - successFrac(out), "ratio"}
	if err := layerCalls(tr, sp, s, last, lm); err != nil {
		return nil, err
	}
	spanMetrics(tr, spanNames, lm)
	out.metrics = lm
	return out, nil
}

// checkMined runs the correctness gate on a mining workload's output.
func checkMined(cfg config, sp mineSpec, data string, last *permine.Result, digests map[string]int, out *outcome) {
	if len(digests) != 1 {
		out.problems = append(out.problems, fmt.Sprintf("calls on one input gave %d different results", len(digests)))
	}
	bad, n := verifyPatterns(data, sp.params, last.Patterns, sp.dpSample, int64(cfg.seed))
	out.problems = append(out.problems, bad...)
	out.detail["dp_checked"] = n
	if err := checkComplete(data, sp.algo, sp.params, sp.prefix, sp.oracleMaxLen); err != nil {
		out.problems = append(out.problems, "completeness: "+err.Error())
	}
	d := digest(last.Patterns)
	out.detail["digest"] = d
	if want, ok := pinned(cfg.workload, cfg.seed); ok && !cfg.tiny {
		out.detail["digest_pinned"] = true
		if d != want {
			out.problems = append(out.problems, fmt.Sprintf("digest %s, pinned %s", d, want))
		}
	}
}

// callLayers fills the mine and pil metrics measured by traced calls:
// medians over the calls of each span's length and of the PIL high-water
// mark, and PIL entries scanned per second of level time.
func callLayers(cts []*callTrace, lm map[string]metric) {
	var pre, lv, lmax, post, memHigh sample
	for _, ct := range cts {
		pre = append(pre, ct.prelevel)
		lv = append(lv, ct.levels)
		lmax = append(lmax, ct.levelMax)
		post = append(post, ct.post)
		memHigh = append(memHigh, float64(ct.memHigh)/(1<<20))
	}
	lm["mine.prelevel_s"] = metric{pre.median(), "s"}
	lm["mine.levels_s"] = metric{lv.median(), "s"}
	lm["mine.level_max_s"] = metric{lmax.median(), "s"}
	lm["mine.post_s"] = metric{post.median(), "s"}
	lm["pil.mem_high_mb"] = metric{memHigh.median(), "MB"}
	if lv.median() > 0 {
		lm["pil.entries_per_s"] = metric{lm["pil.entries"].Value / lv.median(), "1/s"}
	}
}

// levelCounters fills the pil and mine counters from Result.Levels.
func levelCounters(res *permine.Result, lm map[string]metric) {
	var joins, two, cum, bit, fb, entries, cands, freq int64
	for _, l := range res.Levels {
		joins += l.PILJoins
		two += l.JoinTwoPointer
		cum += l.JoinCum
		bit += l.JoinBitap
		fb += l.CumSpanFallbacks
		entries += l.PILEntries
		cands += l.Candidates
		freq += l.Frequent
	}
	lm["pil.joins"] = metric{float64(joins), "count"}
	lm["pil.joins_twoptr"] = metric{float64(two), "count"}
	lm["pil.joins_cum"] = metric{float64(cum), "count"}
	lm["pil.joins_bitap"] = metric{float64(bit), "count"}
	lm["pil.cum_fallbacks"] = metric{float64(fb), "count"}
	lm["pil.entries"] = metric{float64(entries), "count"}
	lm["mine.candidates"] = metric{float64(cands), "count"}
	if cands > 0 {
		lm["mine.useful_ratio"] = metric{float64(freq) / float64(cands), "ratio"}
	}
}

// layerCalls times the single-layer entry points a Mine call is built
// from, called directly on the same arguments: embound.Em (MPPm only; MPP
// never measures e_m), pil.ScanKPacked, and query.FromCached answering a
// top-K query from the mined result.
func layerCalls(tr *tracer, sp mineSpec, s *permine.Sequence, res *permine.Result, lm map[string]metric) error {
	const reps = 3
	p, err := sp.params.Normalize()
	if err != nil {
		return err
	}
	if sp.algo == permine.AlgoMPPm {
		var em, alloc sample
		for i := 0; i < reps; i++ {
			collect()
			a0 := totalAlloc()
			t0 := time.Now()
			v, err := embound.Em(s, p.Gap, p.EmOrder)
			t1 := time.Now()
			a1 := totalAlloc()
			if err != nil {
				return err
			}
			if v != res.Em {
				return fmt.Errorf("embound.Em = %d, Mine reported e_m = %d", v, res.Em)
			}
			tr.add(tr.op(), 0, "embound.em", t0, t1)
			em = append(em, t1.Sub(t0).Seconds())
			alloc = append(alloc, float64(a1-a0)/(1<<20))
		}
		lm["embound.em_s"] = metric{em.median(), "s"}
		lm["embound.em_alloc_mb"] = metric{alloc.median(), "MB"}
	}
	var scan sample
	for i := 0; i < reps; i++ {
		collect()
		t0 := time.Now()
		_, err := pil.ScanKPacked(s, p.Gap, p.StartLen)
		t1 := time.Now()
		if err != nil {
			return err
		}
		tr.add(tr.op(), 0, "pil.scan", t0, t1)
		scan = append(scan, t1.Sub(t0).Seconds())
	}
	lm["pil.scan_s"] = metric{scan.median(), "s"}
	// query.FromCached answers a top-K query from an MPP result only when
	// the result has no patterns past n; elsewhere the layer is not reached
	// and query.derive_s stays 0.
	if d, ok := timeDerive(tr, res, p, 10); ok {
		lm["query.derive_s"] = metric{d, "s"}
	}
	return nil
}

// timeDerive times query.FromCached answering a top-K query from a cached
// full result, as the server's subsumption path does, and returns the
// median seconds; ok is false when the result cannot answer the query.
func timeDerive(tr *tracer, cached *permine.Result, p permine.Params, k int) (secs float64, ok bool) {
	q := p
	q.TopK = k
	var d sample
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		_, ok := query.FromCached(cached, q)
		t1 := time.Now()
		if !ok {
			return 0, false
		}
		tr.add(tr.op(), 0, "query.derive", t0, t1)
		d = append(d, t1.Sub(t0).Seconds())
	}
	return d.median(), true
}

// successFrac is 1 − error_rate: the share of attempted operations that
// neither failed nor returned a wrong result.
func successFrac(out *outcome) float64 {
	if out.attempted == 0 {
		return 0
	}
	return 1 - float64(out.failed)/float64(out.attempted)
}
