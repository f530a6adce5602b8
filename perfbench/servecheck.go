package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"permine"
)

// libKey identifies a library result: the input and the parameters that
// vary across the mix.
type libKey struct {
	data string
	rho  float64
	topK int
}

func keyOf(data string, p permine.Params) libKey { return libKey{data, p.MinSupport, p.TopK} }

// libraryResults mines every distinct (input, parameters) pair of the run
// with the library, nproc at a time, each call single-worker as the
// daemon runs a job.
func libraryResults(keys map[libKey]bool) (map[libKey]*permine.Result, error) {
	type job struct {
		k   libKey
		res *permine.Result
		err error
	}
	jobs := make(chan *job)
	var all []*job
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.res, j.err = mineLibrary(j.k)
			}
		}()
	}
	for k := range keys {
		j := &job{k: k}
		all = append(all, j)
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	out := make(map[libKey]*permine.Result, len(all))
	for _, j := range all {
		if j.err != nil {
			return nil, j.err
		}
		out[j.k] = j.res
	}
	return out, nil
}

func mineLibrary(k libKey) (*permine.Result, error) {
	s, err := permine.NewDNASequence("lib", k.data)
	if err != nil {
		return nil, err
	}
	p := baseParams
	p.MinSupport, p.TopK = k.rho, k.topK
	return permine.Mine(context.Background(), permine.AlgoMPPm, s, p)
}

// libStats is what the library side of the serve-mix run measured.
type libStats struct {
	allocMB sample
	layers  map[string]metric
}

// libraryLayers measures the library on the workload's first fresh miss
// inputs, one call at a time: allocation per call, and in a traced run
// the same per-layer numbers the mining workloads report.
func libraryLayers(tr *tracer, reqs []*request, results map[libKey]*permine.Result) (*libStats, error) {
	const calls = 16
	lib := &libStats{layers: map[string]metric{}}
	sp := mineSpec{algo: permine.AlgoMPPm, params: baseParams}
	var cts []*callTrace
	var build, traced, untraced sample
	var first *permine.Result
	var firstSeq *permine.Sequence
	for _, q := range reqs {
		if q.kind != kMiss || len(lib.allocMB) == calls {
			continue
		}
		t0 := time.Now()
		s, err := buildSequence(q.seq)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		tr.add(tr.op(), 0, "seq.build", t0, t1)
		build = append(build, t1.Sub(t0).Seconds())
		// A traced run alternates untraced and traced calls, as the
		// mining workloads do, to measure the tracing overhead.
		callTr := tr
		if len(lib.allocMB)%2 == 0 {
			callTr = nil
		}
		collect()
		a0 := totalAlloc()
		res, took, ct, err := mineCall(callTr, sp, s)
		a1 := totalAlloc()
		if err != nil {
			return nil, err
		}
		if d1, d2 := digest(res.Patterns), digest(results[keyOf(q.seq, baseParams)].Patterns); d1 != d2 {
			return nil, fmt.Errorf("library results differ between calls on one input (%s, %s)", d1, d2)
		}
		lib.allocMB = append(lib.allocMB, float64(a1-a0)/(1<<20))
		if ct != nil {
			cts = append(cts, ct)
			traced = append(traced, took.Seconds())
		} else {
			untraced = append(untraced, took.Seconds())
		}
		if first == nil {
			first, firstSeq = res, s
		}
	}
	if tr == nil || first == nil {
		return lib, nil
	}
	lm := lib.layers
	lm["seq.build_s"] = metric{build.median(), "s"}
	lm["trace.overhead"] = metric{traced.median() - untraced.median(), "s"}
	levelCounters(first, lm)
	callLayers(cts, lm)
	if err := layerCalls(tr, sp, firstSeq, first, lm); err != nil {
		return nil, err
	}
	return lib, nil
}

// checkServed compares every served result, the ladder's and the
// saturation phase's, with the library's result for the same input and
// parameters, checks the pool's patterns with the
// reference DP and the oracle, and compares the pool's digest with the
// pinned one.
func checkServed(cfg config, pool []string, reqs, sat []*request, tr *tracer, out *outcome) (*libStats, error) {
	keys := map[libKey]bool{}
	for _, data := range pool {
		keys[keyOf(data, baseParams)] = true
	}
	served := append(append([]*request(nil), reqs...), sat...)
	for _, q := range served {
		if q.kind == kCorpus {
			for _, r := range q.recs {
				keys[keyOf(r, q.params)] = true
			}
		} else {
			keys[keyOf(q.seq, q.params)] = true
		}
	}
	results, err := libraryResults(keys)
	if err != nil {
		return nil, err
	}
	lib, err := libraryLayers(tr, reqs, results)
	if err != nil {
		return nil, err
	}

	first := results[keyOf(pool[0], baseParams)]
	bad, n := verifyPatterns(pool[0], baseParams, first.Patterns, 0, 0)
	out.problems = append(out.problems, bad...)
	out.detail["dp_checked"] = n
	if err := checkComplete(pool[0], permine.AlgoMPPm, baseParams, 500, 6); err != nil {
		out.problems = append(out.problems, "completeness: "+err.Error())
	}
	d := poolDigest(results, pool)
	out.detail["digest"] = d
	if want, ok := pinned(cfg.workload, cfg.seed); ok && !cfg.tiny {
		out.detail["digest_pinned"] = true
		if d != want {
			out.problems = append(out.problems, fmt.Sprintf("pool digest %s, pinned %s", d, want))
		}
	}
	if tr != nil {
		np, err := baseParams.Normalize()
		if err != nil {
			return nil, err
		}
		dt, ok := timeDerive(tr, first, np, 10)
		if !ok {
			return nil, fmt.Errorf("query.FromCached cannot answer the subsumption class's query")
		}
		lib.layers["query.derive_s"] = metric{dt, "s"}
	}

	for _, q := range served {
		out.attempted++
		if q.err != "" {
			out.failed++
			continue
		}
		var msg string
		if q.kind == kCorpus {
			msg = checkCorpus(q, results)
		} else {
			msg = checkJob(q, results[keyOf(q.seq, q.params)])
		}
		if msg != "" {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s request due at +%.3fs: %s",
				kindNames[q.kind], q.at.Sub(served[0].at).Seconds(), msg))
		}
	}
	return lib, nil
}

// poolDigest is the digest of the pool's results, each pattern tagged with
// its sequence's index.
func poolDigest(results map[libKey]*permine.Result, pool []string) string {
	var all []permine.Pattern
	for i, data := range pool {
		for _, p := range results[keyOf(data, baseParams)].Patterns {
			p.Chars = fmt.Sprintf("%d:%s", i, p.Chars)
			all = append(all, p)
		}
	}
	return digest(all)
}

// checkJob compares a job's served result with the library's.
func checkJob(q *request, want *permine.Result) string {
	var v struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Patterns []permine.Pattern
		} `json:"result"`
	}
	if err := json.Unmarshal(q.raw, &v); err != nil {
		return "undecodable result: " + err.Error()
	}
	if v.State != "done" || v.Result == nil {
		return fmt.Sprintf("job ended %s: %s", v.State, v.Error)
	}
	return samePatterns(v.Result.Patterns, want.Patterns)
}

// checkCorpus compares a corpus job's merged result with the merge of the
// per-record library results: each pattern's support summed over the
// records it is frequent in, with that record count.
func checkCorpus(q *request, results map[libKey]*permine.Result) string {
	var v struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Patterns []struct {
				Chars   string `json:"chars"`
				Shards  int    `json:"shards"`
				Support int64  `json:"support"`
			} `json:"patterns"`
		} `json:"result"`
	}
	if err := json.Unmarshal(q.raw, &v); err != nil {
		return "undecodable result: " + err.Error()
	}
	if v.State != "done" || v.Result == nil {
		return fmt.Sprintf("corpus ended %s: %s", v.State, v.Error)
	}
	type agg struct {
		shards int
		sup    int64
	}
	want := map[string]agg{}
	for _, r := range q.recs {
		for _, p := range results[keyOf(r, q.params)].Patterns {
			a := want[p.Chars]
			a.shards++
			a.sup += p.Support
			want[p.Chars] = a
		}
	}
	if len(v.Result.Patterns) != len(want) {
		return fmt.Sprintf("%d merged patterns, library gives %d", len(v.Result.Patterns), len(want))
	}
	for _, p := range v.Result.Patterns {
		if a := want[p.Chars]; a.shards != p.Shards || a.sup != p.Support {
			return fmt.Sprintf("pattern %s: %d shards support %d, library %d shards support %d",
				p.Chars, p.Shards, p.Support, a.shards, a.sup)
		}
	}
	return ""
}
