package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"permine"
)

// pinDigests mines each seed of the range a-b, verifies every pattern with
// the reference DP and the prefix against the oracle, and prints the
// digests as {"<workload>": {"<seed>": "<digest>"}} for digests.json.
func pinDigests(cfg config, w io.Writer) error {
	var a, b uint64
	if _, err := fmt.Sscanf(cfg.pin, "%d-%d", &a, &b); err != nil || b < a {
		return fmt.Errorf("--pin wants a seed range a-b, got %q", cfg.pin)
	}
	got := map[string]string{}
	for seed := a; seed <= b; seed++ {
		d, err := pinOne(cfg, seed)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		got[fmt.Sprint(seed)] = d
	}
	enc, err := json.Marshal(map[string]map[string]string{cfg.workload: got})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(enc))
	return err
}

func pinOne(cfg config, seed uint64) (string, error) {
	type input struct {
		data   string
		algo   permine.Algorithm
		params permine.Params
		prefix int
		maxLen int
	}
	var ins []input
	if cfg.workload == "serve-mix" {
		sp := serveSpecFor(cfg.tiny)
		for i := 0; i < sp.pool; i++ {
			data, err := genomeData(sp.seqLen, subSeed(seed, i))
			if err != nil {
				return "", err
			}
			ins = append(ins, input{data, permine.AlgoMPPm, baseParams, 500, 6})
		}
	} else {
		sp := miningSpec(cfg.workload, cfg.tiny)
		data, err := genomeData(sp.length, seed)
		if err != nil {
			return "", err
		}
		ins = append(ins, input{data, sp.algo, sp.params, sp.prefix, sp.oracleMaxLen})
	}
	results := map[libKey]*permine.Result{}
	var pool []string
	for _, in := range ins {
		s, err := permine.NewDNASequence("pin", in.data)
		if err != nil {
			return "", err
		}
		p := in.params
		p.Workers = runtime.NumCPU()
		res, err := permine.Mine(context.Background(), in.algo, s, p)
		if err != nil {
			return "", err
		}
		if bad, _ := verifyPatterns(in.data, in.params, res.Patterns, 0, 0); len(bad) > 0 {
			return "", fmt.Errorf("reference DP disagrees: %v", bad)
		}
		if err := checkComplete(in.data, in.algo, in.params, in.prefix, in.maxLen); err != nil {
			return "", err
		}
		results[keyOf(in.data, in.params)] = res
		pool = append(pool, in.data)
	}
	if cfg.workload == "serve-mix" {
		return poolDigest(results, pool), nil
	}
	return digest(results[keyOf(pool[0], ins[0].params)].Patterns), nil
}
