package main

// The metric names every run prints. BENCHMARK.json lists the same names;
// the self-test checks that the two agree.

// endToEnd are printed by every --trace 0 run, with these units.
var endToEnd = map[string]string{
	"latency_p50_ms":    "ms",
	"latency_tail_ms":   "ms",
	"throughput_per_s":  "1/s",
	"alloc_mb_per_mine": "MB",
	"peak_rss_mb":       "MB",
	"setup_s":           "s",
	"success_frac":      "ratio",
}

// spanNames are the spans a traced run may record; each one's mean self
// time is reported as self.<name>_s.
var spanNames = []string{
	"seq.build", "embound.em", "pil.scan", "query.derive",
	"mine", "mine.prelevel", "mine.level", "mine.post",
	"serve.request", "gen.lag", "server.submit", "server.queue_wait", "server.run", "server.fetch",
	"server.restart",
}

// layerUnits are the per-layer metrics every --trace 1 run prints. A layer
// the workload does not reach reports 0.
var layerUnits = map[string]string{
	"seq.build_s":                 "s",
	"embound.em_s":                "s",
	"embound.em_alloc_mb":         "MB",
	"pil.scan_s":                  "s",
	"pil.joins":                   "count",
	"pil.joins_twoptr":            "count",
	"pil.joins_cum":               "count",
	"pil.joins_bitap":             "count",
	"pil.cum_fallbacks":           "count",
	"pil.entries":                 "count",
	"pil.entries_per_s":           "1/s",
	"pil.mem_high_mb":             "MB",
	"mine.prelevel_s":             "s",
	"mine.levels_s":               "s",
	"mine.level_max_s":            "s",
	"mine.post_s":                 "s",
	"mine.candidates":             "count",
	"mine.useful_ratio":           "ratio",
	"query.derive_s":              "s",
	"server.submit_ms":            "ms",
	"server.queue_wait_ms":        "ms",
	"server.run_ms":               "ms",
	"server.fetch_ms":             "ms",
	"server.cache_hit_ratio":      "ratio",
	"server.subsumption_hits":     "count",
	"server.shed":                 "ratio",
	"store.fsyncs_per_job":        "count",
	"store.journal_bytes_per_job": "B",
	"store.replayed_records":      "count",
	"corpus.shards":               "count",
	"corpus.shard_retries":        "count",
	"gen.late_ms":                 "ms",
	"gen.max_backlog":             "count",
	"serve.hit_p50_ms":            "ms",
	"serve.hit_tail_ms":           "ms",
	"serve.miss_p50_ms":           "ms",
	"serve.miss_tail_ms":          "ms",
	"serve.corpus_p50_ms":         "ms",
	"serve.corpus_tail_ms":        "ms",
	"serve.max_ok_rate_jps":       "1/s",
	"serve.capacity_jps":          "1/s",
	"error_rate":                  "ratio",
	"trace.unattributed_frac":     "ratio",
	"trace.overhead":              "s",
}

// zeroLayerMetrics returns every per-layer metric set to 0, with its unit.
func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerUnits)+len(spanNames))
	for n, u := range layerUnits {
		m[n] = metric{0, u}
	}
	for _, n := range spanNames {
		m["self."+n+"_s"] = metric{0, "s"}
	}
	return m
}
