package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"permine"
	"permine/internal/oracle"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestTinyWorkloads runs a tiny pass of every workload, traced and not,
// and checks that the result line names exactly the metrics BENCHMARK.json
// lists, each with its unit, and that each is also printed as a line.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bj := readBenchmarkJSON(t)
	dir := t.TempDir()
	daemon := filepath.Join(dir, "permined")
	build := exec.Command("go", "build", "-o", daemon, "permine/cmd/permined")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building permined: %v\n%s", err, out)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				code := realMain([]string{"--workload", w.Name, "--seed", "3", "--seconds", "2",
					"--trace", trace, "--tiny", "--daemon", daemon, "--out", dir}, &stdout)
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, stdout.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bj.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bj.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				checkResult(t, stdout.String(), want)
			})
		}
	}
}

func checkResult(t *testing.T, stdout string, want map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 {
		t.Errorf("result has keys %v, want correct, attempted, failed, metrics", res)
	}
	var r struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	for name, unit := range want {
		m, ok := r.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if !strings.Contains(stdout, fmt.Sprintf("\n%-28s ", name)) && !strings.HasPrefix(stdout, name) {
			t.Errorf("metric %s is not printed on its own line", name)
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
}

// TestCheckerRejectsCorruptResult is the negative control: one support
// changed by one must fail the DP check, the library comparison and the
// digest.
func TestCheckerRejectsCorruptResult(t *testing.T) {
	sp := miningSpec("mppm-genome", true)
	data, err := genomeData(sp.length, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := permine.NewDNASequence("t", data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := permine.Mine(context.Background(), sp.algo, s, sp.params)
	if err != nil {
		t.Fatal(err)
	}
	if bad, n := verifyPatterns(data, sp.params, res.Patterns, 0, 0); len(bad) > 0 || n != len(res.Patterns) {
		t.Fatalf("the unmodified result fails the check (%d of %d checked): %v", n, len(res.Patterns), bad)
	}
	corrupt := append([]permine.Pattern(nil), res.Patterns...)
	i := len(corrupt) / 2
	corrupt[i].Support++
	if bad, _ := verifyPatterns(data, sp.params, corrupt, 0, 0); len(bad) != 1 || !strings.Contains(bad[0], corrupt[i].Chars) {
		t.Errorf("DP check on a corrupted support reported %v", bad)
	}
	if samePatterns(corrupt, res.Patterns) == "" {
		t.Error("library comparison accepted a corrupted support")
	}

	// The served-result path: a job view whose result carries the same
	// corruption must be rejected against the library result.
	raw, err := json.Marshal(map[string]any{"state": "done", "result": map[string]any{"Patterns": corrupt}})
	if err != nil {
		t.Fatal(err)
	}
	if checkJob(&request{raw: raw}, res) == "" {
		t.Error("served-result check accepted a corrupted support")
	}
	raw, _ = json.Marshal(map[string]any{"state": "done", "result": map[string]any{"Patterns": res.Patterns}})
	if msg := checkJob(&request{raw: raw}, res); msg != "" {
		t.Errorf("served-result check rejected a correct result: %s", msg)
	}
}

// TestCounterMatchesOracle checks the reference DP itself against the
// brute-force oracle's offset enumeration.
func TestCounterMatchesOracle(t *testing.T) {
	data, err := genomeData(400, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := permine.NewDNASequence("t", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []permine.Gap{{N: 0, M: 0}, {N: 1, M: 3}, {N: 9, M: 12}} {
		c := newCounter(data, g)
		for _, pat := range []string{"A", "AT", "TA", "AAT", "ACGT", "TTTTT", "GATCA"} {
			want, err := oracle.Support(s, pat, g)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.support(pat); got != want {
				t.Errorf("gap %v pattern %s: DP %d, oracle %d", g, pat, got, want)
			}
		}
		for l := 1; l <= 4; l++ {
			want, err := oracle.CountOffsets(len(data), l, g)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.offsets(l); got != want {
				t.Errorf("gap %v N_%d: DP %d, oracle %d", g, l, got, want)
			}
		}
	}
}

func TestTail(t *testing.T) {
	var s sample
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		n          int
		tail       float64
		beyondTail int
	}{{100, 90, 10}, {18, 17, 1}, {5, 5, 0}, {1, 1, 0}} {
		if v, b := s[:c.n].tail(), s[:c.n].beyondTail(); v != c.tail || b != c.beyondTail {
			t.Errorf("tail of 1..%d = %v with %d beyond, want %v with %d", c.n, v, b, c.tail, c.beyondTail)
		}
	}
}
