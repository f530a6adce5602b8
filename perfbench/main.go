// Command perfbench is permine's end-to-end benchmark. One invocation runs
// one workload for a fixed time, checks every output it produced against
// references that share no code with the miners, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload mppm-genome --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it reports the per-layer metrics: spans are recorded
// at every call boundary the benchmark makes into a layer, kept in memory,
// and written as JSON to .bench_build/ when the run ends.
//
// The workloads, metrics and the layer each per-layer metric should move
// are listed in perfbench/CHOICES.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// config is one invocation's settings.
type config struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	tiny        bool    // shrink every input (self-test only)
	missLimitMS float64 // serve-mix: miss_tail_ms limit per ladder rate
	daemon      string  // serve-mix: the permined binary
	outDir      string  // trace and scratch output
	pin         string  // "a-b": print pinned digests for seeds a..b and exit
}

// outcome is what a workload run hands back to main.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string // wrong outputs; any entry makes the run incorrect
	detail    map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workload struct {
	name string
	run  func(cfg config, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"mppm-genome", runMining},
	{"mpp-narrow-1m5", runMining},
	{"serve-mix", runServe},
}

func main() {
	code := 0
	func() {
		defer stopChildren()
		code = realMain(os.Args[1:], os.Stdout)
	}()
	os.Exit(code)
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var seed int64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&seed, "seed", 0, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs (benchmark self-test)")
	fs.Float64Var(&cfg.missLimitMS, "miss-tail-limit-ms", 400, "serve-mix: miss_tail_ms limit a ladder rate must meet")
	fs.StringVar(&cfg.daemon, "daemon", ".bench_build/permined", "permined binary (serve-mix)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for traces and scratch data")
	fs.StringVar(&cfg.pin, "pin", "", "print digests for seeds a-b of the workload, verified in full, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seed < 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seed must be >= 0, --seconds > 0, --trace 0 or 1")
		return 2
	}
	cfg.seed, cfg.trace = uint64(seed), trace == 1

	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.pin != "" {
		if err := pinDigests(cfg, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	// Stop the daemon on an interrupt too; stopChildren runs before exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopChildren()
		os.Exit(1)
	}()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out, err := wl.run(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := tr.writeJSON(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		out.detail["trace_file"] = path
	}
	return report(cfg, out, stdout)
}

// report prints the metrics, the detail line and the final result line,
// and returns the exit code: non-zero when any output was wrong.
func report(cfg config, out *outcome, stdout io.Writer) int {
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "WRONG:", p)
	}
	out.detail["stamp"] = stamp()
	out.detail["workload"] = cfg.workload
	out.detail["seed"] = cfg.seed
	out.detail["seconds"] = cfg.seconds
	out.detail["trace"] = cfg.trace
	out.detail["problems"] = out.problems
	d, err := json.Marshal(map[string]any{"detail": out.detail})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding detail:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(d))
	correct := len(out.problems) == 0
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(res))
	if !correct {
		return 1
	}
	return 0
}

// stamp records the machine and code a result came from.
func stamp() map[string]any {
	st := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     commit(),
		"source":     sourceDigest("."),
	}
	return st
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root, so a result
// names the exact code it measured even where there is no git history.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
