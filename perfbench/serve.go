package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"permine"
)

// The serve-mix workload drives a permined process built from the tree,
// over loopback HTTP, in two phases. The ladder is an open loop: requests
// are sent on a fixed schedule whatever the daemon's state, and each
// latency runs from the request's scheduled send to its terminal result
// being received. The saturation phase is a closed loop of cold misses
// that keeps the daemon's workers busy, and measures its capacity.

// kind is one class of request in the mix.
type kind int

const (
	kMiss   kind = iota // a fresh sequence: mined cold
	kRemine             // a pooled sequence at a lower ρs: a miss that repeats e_m
	kHit                // an exact repeat of a pooled job: a cache hit
	kSub                // a top-K query on a pooled job: a subsumption hit
	kCorpus             // a small multi-FASTA corpus job
	nKinds
)

var kindNames = [nKinds]string{"miss", "remine", "hit", "subsumption", "corpus"}

// mix is how many of each kind every block of ten consecutive ladder
// requests holds, in a seeded order, so each seed puts the same load on
// the daemon. The shares are assumptions, not taken from recorded traffic
// (the repository has none): misses get half because the end-to-end
// latencies are theirs; hits and subsumption hits enough for their own
// per-class figures; re-mines and corpus jobs, which mine too, small
// shares so the other classes' load on the workers stays light.
// CHOICES.md lists the metrics that depend on them.
var mix = [nKinds]int{5, 1, 2, 1, 1}

// serveSpec sizes the workload.
type serveSpec struct {
	seqLen     int       // fresh and pooled sequences
	pool       int       // sequences mined before the daemon restarts
	corpusRecs int       // records per corpus job
	corpusLen  int       // characters per corpus record
	rates      []float64 // the ladder, requests per second
	restarts   int       // timed daemon restarts; the median is setup_s
}

func serveSpecFor(tiny bool) serveSpec {
	if tiny {
		return serveSpec{seqLen: 300, pool: 4, corpusRecs: 2, corpusLen: 200,
			rates: []float64{4, 8}, restarts: 2}
	}
	return serveSpec{seqLen: 1000, pool: 16, corpusRecs: 3, corpusLen: 400,
		rates: []float64{4, 6, 8}, restarts: 5}
}

// baseParams are MPPm with the paper's gap [9,12] and m = 8 at ρs = 0.03%,
// raised from the paper's 0.003% so that a 1 kb miss mines in about 80 ms.
var baseParams = permine.Params{Gap: permine.Gap{N: 9, M: 12}, MinSupport: 0.0003}

// remineSupports are the lower thresholds a re-mine picks from.
var remineSupports = []float64{0.00028, 0.00026, 0.00024, 0.00022}

type paramsJSON struct {
	GapMin     int     `json:"gap_min"`
	GapMax     int     `json:"gap_max"`
	MinSupport float64 `json:"min_support"`
	TopK       int     `json:"top_k,omitempty"`
}

func wireParams(p permine.Params) paramsJSON {
	return paramsJSON{GapMin: p.Gap.N, GapMax: p.Gap.M, MinSupport: p.MinSupport, TopK: p.TopK}
}

// request is one scheduled request and, once run, its outcome.
type request struct {
	kind   kind
	step   int
	off    time.Duration // scheduled send, from the ladder's start
	at     time.Time     // scheduled send
	path   string
	body   []byte
	seq    string   // job input
	recs   []string // corpus input
	params permine.Params

	sent, posted, fetchStart, done time.Time
	status                         int
	id                             string
	view                           viewTimes
	raw                            []byte // the terminal response body
	err                            string
}

// viewTimes is the part of a JobView or corpus View the generator reads
// while the run is live.
type viewTimes struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	CacheHit   bool       `json:"cache_hit"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at"`
	Error      string     `json:"error"`
}

func terminal(state string) bool {
	switch state {
	case "done", "failed", "cancelled", "resource_exhausted", "partial":
		return true
	}
	return false
}

func subSeed(seed uint64, i int) uint64 { return seed<<20 + uint64(i) }

func jobBody(name, data string, p permine.Params) []byte {
	b, _ := json.Marshal(map[string]any{
		"algorithm": "mppm",
		"params":    wireParams(p),
		"sequence":  map[string]string{"name": name, "data": data},
	})
	return b
}

func corpusBody(name string, recs []string, p permine.Params) []byte {
	var fa strings.Builder
	for i, r := range recs {
		fmt.Fprintf(&fa, ">%s-%d\n%s\n", name, i, r)
	}
	b, _ := json.Marshal(map[string]any{
		"name":      name,
		"algorithm": "mppm",
		"params":    wireParams(p),
		"fasta":     fa.String(),
	})
	return b
}

// schedule lays out the ladder: at each rate, evenly spaced sends for
// stepDur, with kinds taken from blocks of the mix shuffled by a seeded
// generator.
func schedule(sp serveSpec, seed uint64, pool []string, stepDur time.Duration) ([]*request, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	var reqs []*request
	fresh, remine, sub, corp := 0, 0, 0, 0
	remineOrder := r.Perm(len(pool) * len(remineSupports))
	var block []kind
	for k := kind(0); k < nKinds; k++ {
		for i := 0; i < mix[k]; i++ {
			block = append(block, k)
		}
	}
	var t time.Duration
	for step, rate := range sp.rates {
		gap := time.Duration(float64(time.Second) / rate)
		end := time.Duration(step+1) * stepDur
		for ; t < end; t += gap {
			i := len(reqs) % len(block)
			if i == 0 {
				r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			k := block[i]
			q := &request{kind: k, step: step, off: t, path: "/v1/jobs", params: baseParams}
			switch k {
			case kMiss:
				data, err := genomeData(sp.seqLen, subSeed(seed, 1000+fresh))
				if err != nil {
					return nil, err
				}
				q.seq = data
				fresh++
			case kRemine:
				c := remineOrder[remine%len(remineOrder)]
				remine++
				q.seq = pool[c%len(pool)]
				q.params.MinSupport = remineSupports[c/len(pool)]
			case kHit:
				q.seq = pool[r.Intn(len(pool))]
			case kSub:
				q.seq = pool[sub%len(pool)]
				q.params.TopK = 5 + sub // distinct, so each is derived afresh
				sub++
			case kCorpus:
				q.path = "/v1/corpus"
				for i := 0; i < sp.corpusRecs; i++ {
					data, err := genomeData(sp.corpusLen, subSeed(seed, 500_000+corp*sp.corpusRecs+i))
					if err != nil {
						return nil, err
					}
					q.recs = append(q.recs, data)
				}
				corp++
			}
			if k == kCorpus {
				q.body = corpusBody(fmt.Sprintf("c%d", corp), q.recs, q.params)
			} else {
				q.body = jobBody(fmt.Sprintf("%s-%d", kindNames[k], len(reqs)), q.seq, q.params)
			}
			reqs = append(reqs, q)
		}
		t = end
	}
	return reqs, nil
}

// daemon is one running permined process.
type daemon struct {
	cmd  *exec.Cmd
	done <-chan struct{}
	base string // http://host:port
}

// startDaemon execs permined on dataDir and returns once /readyz answers
// 200, or an error. The elapsed time from exec to ready is returned.
func startDaemon(bin, dataDir, logPath string, client *http.Client) (*daemon, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(runtime.NumCPU()),
		"-data-dir", dataDir,
		"-compact-bytes", strconv.Itoa(1<<30),
	)
	cmd.Stderr = logf
	// The daemon prints its bound address on stdout. An os.Pipe (rather
	// than StdoutPipe) lets the reader run to EOF independently of Wait.
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	cmd.Stdout = pw
	t0 := time.Now()
	done, err := startChild(cmd)
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: done}
	addr := make(chan string, 1)
	go func() {
		// Read to EOF, which comes when the daemon exits, so it never
		// writes into a closed pipe.
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), " listening on "); ok {
				addr <- a
				break
			}
		}
		io.Copy(io.Discard, pr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-done:
		return nil, 0, fmt.Errorf("permined exited before listening (see %s)", logPath)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("permined did not listen within 60s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("permined not ready within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop stops the daemon and returns its peak RSS in MiB.
func (d *daemon) stop() float64 {
	stopChild(d.cmd, d.done, 30*time.Second)
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// getJSON fetches base+path and decodes it into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverMetrics is the part of GET /v1/metrics the benchmark reads.
type serverMetrics struct {
	Cache struct {
		Hits            int64 `json:"hits"`
		SubsumptionHits int64 `json:"subsumption_hits"`
		Misses          int64 `json:"misses"`
	} `json:"cache"`
	Store struct {
		JournalBytes    int64 `json:"journal_bytes"`
		Fsyncs          int64 `json:"fsyncs"`
		Compactions     int64 `json:"compactions"`
		ReplayedRecords int64 `json:"replayed_records"`
	} `json:"store"`
	Corpus struct {
		Shards  map[string]int64 `json:"shards_total"`
		Retries int64            `json:"shard_retries_total"`
	} `json:"corpus"`
}

// journal runs the untimed phase: a daemon on a fresh data dir mines the
// pool, so the timed restarts have a journal to replay and the pool is in
// the restored cache for the hit and subsumption classes.
func journal(cfg config, client *http.Client, dir string, pool []string) (peakRSS float64, err error) {
	d, _, err := startDaemon(cfg.daemon, dir, filepath.Join(filepath.Dir(dir), "journal.log"), client)
	if err != nil {
		return 0, err
	}
	for i, data := range pool {
		q := &request{path: "/v1/jobs", body: jobBody(fmt.Sprintf("pool-%d", i), data, baseParams)}
		if err := runOne(client, d.base, q); err != nil {
			d.stop()
			return 0, fmt.Errorf("pool job %d: %w", i, err)
		}
	}
	return d.stop(), nil
}

// runOne submits q and polls it to a terminal state (untimed use only).
func runOne(client *http.Client, base string, q *request) error {
	if err := submit(client, base, q); err != nil {
		return err
	}
	for q.raw == nil {
		time.Sleep(5 * time.Millisecond)
		if err := poll(client, base, q); err != nil {
			return err
		}
	}
	if q.view.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", q.id, q.view.State, q.view.Error)
	}
	return nil
}

// submit POSTs q. A 200 carries the terminal view inline (a cache or
// subsumption hit); a 202 leaves q to be polled.
func submit(client *http.Client, base string, q *request) error {
	q.sent = time.Now()
	resp, err := client.Post(base+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	q.posted = time.Now()
	q.status = resp.StatusCode
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST %s: %s", q.path, resp.Status)
	}
	var v viewTimes
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("decoding POST %s response: %w", q.path, err)
	}
	q.id, q.view = v.ID, v
	if terminal(v.State) {
		q.fetchStart, q.done, q.raw = q.sent, q.posted, body
	}
	return nil
}

// poll GETs q once and records the terminal view when it has one.
func poll(client *http.Client, base string, q *request) error {
	t0 := time.Now()
	resp, err := client.Get(base + q.path + "/" + q.id)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/%s: %s", q.path, q.id, resp.Status)
	}
	var v viewTimes
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("decoding GET %s/%s: %w", q.path, q.id, err)
	}
	if terminal(v.State) {
		q.view, q.fetchStart, q.done, q.raw = v, t0, t1, body
	}
	return nil
}

// sleepUntil sleeps until t (no-op when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

const (
	requestTimeout = 30 * time.Second
	pollInterval   = 5 * time.Millisecond
	// saturationShare is the part of a traced run the closed loop takes;
	// the ladder's steps share the rest equally. An untraced run is all
	// ladder: its end-to-end metrics come from the ladder alone.
	saturationShare = 0.4
	saturationPoll  = 10 * time.Millisecond
	// maxSaturationRate bounds the misses per second the closed loop can
	// measure: about twenty times the 2-core capacity seen when it was set.
	maxSaturationRate = 400
)

// drive runs the open loop: one goroutine sends on schedule, one polls the
// accepted jobs, and the HTTP transport holds at most two connections, so
// on two or more CPUs the generator uses no more goroutines or connections
// than nproc. It returns the generator's largest backlog (requests due but
// not yet sent).
func drive(client *http.Client, base string, reqs []*request) (maxBacklog int) {
	pending := make(chan *request, len(reqs)) // one slot per possible send
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pollLoop(client, base, pending)
	}()
	for i, q := range reqs {
		sleepUntil(q.at)
		now := time.Now()
		due := i
		for due < len(reqs) && !reqs[due].at.After(now) {
			due++
		}
		maxBacklog = max(maxBacklog, due-i-1)
		if err := submit(client, base, q); err != nil {
			q.err, q.done = err.Error(), time.Now()
			continue
		}
		if q.raw == nil {
			pending <- q
		}
	}
	close(pending)
	wg.Wait()
	return maxBacklog
}

func pollLoop(client *http.Client, base string, in <-chan *request) {
	var live []*request
	open := true
	for open || len(live) > 0 {
		if len(live) == 0 {
			q, ok := <-in
			if !ok {
				return
			}
			live = append(live, q)
		}
	drain:
		for open {
			select {
			case q, ok := <-in:
				if !ok {
					open = false
					break drain
				}
				live = append(live, q)
			default:
				break drain
			}
		}
		live = pollAll(client, base, live)
		time.Sleep(pollInterval)
	}
}

// pollAll polls each live request once and returns those still unfinished.
// A request unfinished requestTimeout after its scheduled send has failed.
func pollAll(client *http.Client, base string, live []*request) []*request {
	keep := live[:0]
	for _, q := range live {
		if err := poll(client, base, q); err != nil {
			q.err, q.done = err.Error(), time.Now()
			continue
		}
		if q.raw != nil {
			continue
		}
		if time.Since(q.at) > requestTimeout {
			q.err, q.done = "timed out", time.Now()
			continue
		}
		keep = append(keep, q)
	}
	return keep
}

// saturate runs the closed loop: it keeps depth cold misses in flight, a
// new one sent as soon as one finishes, so the daemon's queue never runs
// dry, and stops sending after d. It returns the requests it sent and the
// daemon's capacity: the misses completed after the first sixth of d (a
// warm-up, while the daemon's heap grows) and before d ends, per second of
// that window. One goroutine sends and polls. The daemon runs jobs in
// arrival order, so only the oldest nproc live jobs are polled, which
// keeps the generator's share of the CPUs small.
func saturate(client *http.Client, base string, inputs []*request, depth int, d time.Duration) ([]*request, float64, error) {
	start := time.Now()
	end := start.Add(d)
	var live []*request
	next := 0
	for time.Now().Before(end) || len(live) > 0 {
		for time.Now().Before(end) && len(live) < depth {
			if next == len(inputs) {
				return nil, 0, fmt.Errorf("the saturation phase used all %d prepared inputs", len(inputs))
			}
			q := inputs[next]
			next++
			q.at = time.Now()
			if err := submit(client, base, q); err != nil {
				q.err, q.done = err.Error(), time.Now()
				break // do not spin through the inputs while the daemon refuses
			}
			if q.raw == nil {
				live = append(live, q)
			}
		}
		time.Sleep(saturationPoll)
		head := min(len(live), runtime.NumCPU())
		rest := live[head:]
		live = append(pollAll(client, base, live[:head:head]), rest...)
	}
	sent := inputs[:next]
	warm := start.Add(d / 6)
	n := 0
	for _, q := range sent {
		if q.err == "" && q.done.After(warm) && !q.done.After(end) {
			n++
		}
	}
	return sent, float64(n) / end.Sub(warm).Seconds(), nil
}

// saturationInputs prepares the closed loop's fresh sequences, far more
// than the daemon can mine in d today, so a faster daemon does not run out.
func saturationInputs(sp serveSpec, seed uint64, d time.Duration) ([]*request, error) {
	n := int(maxSaturationRate * d.Seconds())
	reqs := make([]*request, n)
	for i := range reqs {
		data, err := genomeData(sp.seqLen, subSeed(seed, 200_000+i))
		if err != nil {
			return nil, err
		}
		reqs[i] = &request{kind: kMiss, path: "/v1/jobs", params: baseParams, seq: data,
			body: jobBody(fmt.Sprintf("sat-%d", i), data, baseParams)}
	}
	return reqs, nil
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     min(n, 2),
			MaxIdleConnsPerHost: min(n, 2),
			DisableCompression:  true,
		},
	}
}

func runServe(cfg config, tr *tracer) (*outcome, error) {
	sp := serveSpecFor(cfg.tiny)
	out := &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
	runDir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	client := newClient()
	defer client.CloseIdleConnections()

	pool := make([]string, sp.pool)
	for i := range pool {
		if pool[i], err = genomeData(sp.seqLen, subSeed(cfg.seed, i)); err != nil {
			return nil, err
		}
	}
	jdir := filepath.Join(runDir, "journal")
	journalRSS, err := journal(cfg, client, jdir, pool)
	if err != nil {
		return nil, fmt.Errorf("journaling phase: %w", err)
	}

	// Set-up: exec to /readyz 200 on a copy of the journaled data dir.
	var setup sample
	var d *daemon
	var replayed int64
	var restartRSS sample
	for i := 0; i < sp.restarts; i++ {
		rdir := filepath.Join(runDir, fmt.Sprintf("data-%d", i))
		if err := copyDir(jdir, rdir); err != nil {
			return nil, err
		}
		dd, took, err := startDaemon(cfg.daemon, rdir, filepath.Join(runDir, fmt.Sprintf("daemon-%d.log", i)), client)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		setup = append(setup, took.Seconds())
		now := time.Now()
		tr.add(tr.op(), 0, "server.restart", now.Add(-took), now)
		if i == sp.restarts-1 {
			d = dd
			break
		}
		var m serverMetrics
		if err := getJSON(client, dd.base+"/v1/metrics", &m); err != nil {
			dd.stop()
			return nil, err
		}
		replayed = m.Store.ReplayedRecords
		restartRSS = append(restartRSS, dd.stop())
		os.RemoveAll(rdir)
	}
	defer d.stop()

	ladderS, satDur := cfg.seconds, time.Duration(0)
	if cfg.trace {
		ladderS = cfg.seconds * (1 - saturationShare)
		satDur = time.Duration(cfg.seconds * saturationShare * float64(time.Second))
	}
	stepDur := time.Duration(ladderS / float64(len(sp.rates)) * float64(time.Second))
	reqs, err := schedule(sp, cfg.seed, pool, stepDur)
	if err != nil {
		return nil, err
	}
	var satInputs []*request
	if satDur > 0 {
		if satInputs, err = saturationInputs(sp, cfg.seed, satDur); err != nil {
			return nil, err
		}
	}
	var before, after serverMetrics
	if err := getJSON(client, d.base+"/v1/metrics", &before); err != nil {
		return nil, err
	}
	start := time.Now().Add(50 * time.Millisecond)
	for _, q := range reqs {
		q.at = start.Add(q.off)
	}
	h0 := readHostCPU()
	maxBacklog := drive(client, d.base, reqs)
	steal := stealShare(h0, readHostCPU())
	if err := getJSON(client, d.base+"/v1/metrics", &after); err != nil {
		return nil, err
	}
	var sat []*request
	var satJPS float64
	if satDur > 0 {
		if sat, satJPS, err = saturate(client, d.base, satInputs, 4*runtime.NumCPU(), satDur); err != nil {
			return nil, err
		}
		out.detail["saturation"] = map[string]any{"sent": len(sat), "seconds": satDur.Seconds(), "misses_per_s": satJPS}
	}
	ladderRSS := d.stop()
	// The ladder daemon's peak swings by a third between runs with GC
	// timing under concurrent jobs; the journaling daemon mines the pool
	// one job at a time and peaks within a few percent, so it is the
	// reported peak_rss_mb.
	out.detail["daemon_peak_rss_mb"] = map[string]any{"journal": journalRSS, "restarts": restartRSS, "ladder": ladderRSS}

	// Correctness and library timings, outside the open loop.
	lib, err := checkServed(cfg, pool, reqs, sat, tr, out)
	if err != nil {
		return nil, err
	}

	st := serveStats(sp, cfg, reqs, stepDur)
	out.detail["ladder"] = st.steps
	out.detail["classes"] = st.classes
	out.detail["setup_s"] = setup
	out.detail["max_ok_rate_jps"] = st.maxOK
	out.detail["miss_tail_limit_ms"] = cfg.missLimitMS
	out.detail["latency_ms"] = st.latMiss.summary()
	out.detail["steal_share"] = steal
	out.detail["latency_ms_samples"] = st.latMiss
	if !cfg.trace {
		out.metrics["latency_p50_ms"] = metric{st.latMiss.median() * (1 - steal), "ms"}
		out.metrics["latency_tail_ms"] = metric{st.latMiss.tail() * (1 - steal), "ms"}
		out.metrics["throughput_per_s"] = metric{st.steps[len(st.steps)-1].ServedPerS, "1/s"}
		out.metrics["alloc_mb_per_mine"] = metric{lib.allocMB.median(), "MB"}
		out.metrics["peak_rss_mb"] = metric{journalRSS, "MB"}
		out.metrics["setup_s"] = metric{setup.median(), "s"}
		out.metrics["success_frac"] = metric{successFrac(out), "ratio"}
		return out, nil
	}

	lm := zeroLayerMetrics()
	for k, v := range lib.layers {
		lm[k] = v
	}
	cls := func(k kind) sample { return st.byKind[k] }
	lm["serve.hit_p50_ms"] = metric{cls(kHit).median(), "ms"}
	lm["serve.hit_tail_ms"] = metric{cls(kHit).tail(), "ms"}
	lm["serve.miss_p50_ms"] = metric{st.latMiss.median(), "ms"}
	lm["serve.miss_tail_ms"] = metric{st.latMiss.tail(), "ms"}
	lm["serve.corpus_p50_ms"] = metric{cls(kCorpus).median(), "ms"}
	lm["serve.corpus_tail_ms"] = metric{cls(kCorpus).tail(), "ms"}
	lm["serve.max_ok_rate_jps"] = metric{st.maxOK, "1/s"}
	lm["serve.capacity_jps"] = metric{satJPS, "1/s"}
	lm["server.submit_ms"] = metric{st.submit.median(), "ms"}
	lm["server.queue_wait_ms"] = metric{st.queueWait.median(), "ms"}
	lm["server.run_ms"] = metric{st.run.median(), "ms"}
	lm["server.fetch_ms"] = metric{st.fetch.median(), "ms"}
	hits := after.Cache.Hits - before.Cache.Hits
	subs := after.Cache.SubsumptionHits - before.Cache.SubsumptionHits
	misses := after.Cache.Misses - before.Cache.Misses
	if t := hits + subs + misses; t > 0 {
		lm["server.cache_hit_ratio"] = metric{float64(hits+subs) / float64(t), "ratio"}
	}
	lm["server.subsumption_hits"] = metric{float64(subs), "count"}
	lm["server.shed"] = metric{float64(st.shed) / float64(len(reqs)), "ratio"}
	n := float64(len(reqs))
	lm["store.fsyncs_per_job"] = metric{float64(after.Store.Fsyncs-before.Store.Fsyncs) / n, "count"}
	if after.Store.Compactions == before.Store.Compactions {
		lm["store.journal_bytes_per_job"] = metric{float64(after.Store.JournalBytes-before.Store.JournalBytes) / n, "B"}
	}
	lm["store.replayed_records"] = metric{float64(replayed), "count"}
	if nc := len(cls(kCorpus)); nc > 0 {
		shards := sumMap(after.Corpus.Shards) - sumMap(before.Corpus.Shards)
		lm["corpus.shards"] = metric{float64(shards) / float64(nc), "count"}
	}
	lm["corpus.shard_retries"] = metric{float64(after.Corpus.Retries - before.Corpus.Retries), "count"}
	lm["gen.late_ms"] = metric{st.late.quantile(0.99), "ms"}
	lm["gen.max_backlog"] = metric{float64(maxBacklog), "count"}
	lm["error_rate"] = metric{1 - successFrac(out), "ratio"}
	for _, q := range reqs {
		traceRequest(tr, q)
	}
	for _, q := range sat {
		traceRequest(tr, q)
	}
	spanMetrics(tr, spanNames, lm)
	out.metrics = lm
	return out, nil
}

func sumMap(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

// traceRequest records one request's spans: the generator's lag, the POST,
// the daemon's queue wait and run (from the view's timestamps) and the
// terminal fetch. The wait between the run ending and the fetch starting
// is the poll interval's share, left unattributed.
func traceRequest(tr *tracer, q *request) {
	if tr == nil || q.done.IsZero() {
		return
	}
	op := tr.op()
	root := tr.add(op, 0, "serve.request", q.at, q.done)
	tr.add(op, root, "gen.lag", q.at, q.sent)
	if q.posted.IsZero() {
		return
	}
	tr.add(op, root, "server.submit", q.sent, q.posted)
	v := q.view
	if v.StartedAt != nil && !v.CacheHit {
		tr.add(op, root, "server.queue_wait", v.CreatedAt, *v.StartedAt)
		if v.FinishedAt != nil {
			tr.add(op, root, "server.run", *v.StartedAt, *v.FinishedAt)
		}
	}
	if q.fetchStart.After(q.posted) {
		tr.add(op, root, "server.fetch", q.fetchStart, q.done)
	}
}

// ladderStep is the detail-line view of one rate.
type ladderStep struct {
	Rate        float64 `json:"rate"`
	Sent        int     `json:"sent"`
	Failed      int     `json:"failed"`
	MissP50MS   float64 `json:"miss_p50_ms"`
	MissTailMS  float64 `json:"miss_tail_ms"`
	Outstanding int     `json:"outstanding_at_end"`
	Growing     bool    `json:"backlog_growing"`
	OK          bool    `json:"ok"`
	// ServedPerS is the step's successful requests per second, from its
	// first scheduled send to its last result received. It stays near the
	// rate while the daemon keeps up, and falls when requests fail or the
	// backlog grows.
	ServedPerS float64 `json:"served_per_s"`
}

type serveStatsT struct {
	byKind                        [nKinds]sample // ms, successful requests
	latMiss                       sample         // ms, misses at every ladder rate
	submit, queueWait, run, fetch sample         // ms
	late                          sample         // ms
	shed                          int
	steps                         []ladderStep
	classes                       map[string]any
	maxOK                         float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func serveStats(sp serveSpec, cfg config, reqs []*request, stepDur time.Duration) serveStatsT {
	var st serveStatsT
	st.steps = make([]ladderStep, len(sp.rates))
	stepMiss := make([]sample, len(sp.rates))
	stepFirst := make([]time.Time, len(sp.rates))
	stepLast := make([]time.Time, len(sp.rates))
	stepOK := make([]int, len(sp.rates))
	for i := range st.steps {
		st.steps[i].Rate = sp.rates[i]
	}
	for _, q := range reqs {
		s := &st.steps[q.step]
		s.Sent++
		if stepFirst[q.step].IsZero() || q.at.Before(stepFirst[q.step]) {
			stepFirst[q.step] = q.at
		}
		if q.done.After(stepLast[q.step]) {
			stepLast[q.step] = q.done
		}
		if !q.sent.IsZero() {
			st.late = append(st.late, ms(q.sent.Sub(q.at)))
		}
		if q.status == http.StatusTooManyRequests {
			st.shed++
		}
		// A request still unfinished when its step ended is outstanding
		// backlog at that rate.
		stepEnd := q.at.Add(time.Duration(q.step+1)*stepDur - q.off)
		if q.done.After(stepEnd) {
			s.Outstanding++
		}
		if q.err != "" {
			s.Failed++
			continue
		}
		stepOK[q.step]++
		lat := ms(q.done.Sub(q.at))
		st.byKind[q.kind] = append(st.byKind[q.kind], lat)
		if !q.posted.IsZero() {
			st.submit = append(st.submit, ms(q.posted.Sub(q.sent)))
		}
		if q.kind == kMiss {
			stepMiss[q.step] = append(stepMiss[q.step], lat)
			st.latMiss = append(st.latMiss, lat)
			v := q.view
			if v.StartedAt != nil && v.FinishedAt != nil {
				st.queueWait = append(st.queueWait, ms(v.StartedAt.Sub(v.CreatedAt)))
				st.run = append(st.run, ms(v.FinishedAt.Sub(*v.StartedAt)))
			}
			st.fetch = append(st.fetch, ms(q.done.Sub(q.fetchStart)))
		}
	}
	contiguous := true // every lower rate was OK
	for i := range st.steps {
		s := &st.steps[i]
		if d := stepLast[i].Sub(stepFirst[i]).Seconds(); d > 0 {
			s.ServedPerS = float64(stepOK[i]) / d
		}
		s.MissP50MS = stepMiss[i].median()
		s.MissTailMS = stepMiss[i].tail()
		// Little's law: a rate served within the limit keeps at most
		// rate × limit requests in flight; more means the backlog grows.
		s.Growing = float64(s.Outstanding) > s.Rate*cfg.missLimitMS/1000+2
		s.OK = s.Failed == 0 && !s.Growing && len(stepMiss[i]) > 0 && s.MissTailMS <= cfg.missLimitMS
		contiguous = contiguous && s.OK
		if contiguous {
			st.maxOK = s.Rate
		}
	}
	st.classes = map[string]any{}
	for k := kind(0); k < nKinds; k++ {
		st.classes[kindNames[k]] = st.byKind[k].summary()
	}
	return st
}

// copyDir copies a flat directory tree (the daemon's data dir).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
