package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"permine/internal/core"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// Recovery outcome labels reported under the metrics snapshot's "recovery"
// map and counted by Manager.Restore.
const (
	recoveryTerminal  = "terminal"        // restored already finished, result queryable
	recoveryRequeued  = "requeued"        // interrupted job queued for re-execution
	recoveryExhausted = "retry_exhausted" // interrupted job failed: retry budget spent
	recoverySkipped   = "skipped"         // record could not be decoded
)

// recordForJob renders a job's full durable record, result included for
// terminal states. The caller must have exclusive access to the job's
// mutable fields (a job not yet enqueued) or hold j.mu.
func recordForJob(j *Job) store.JobRecord {
	params, _ := json.Marshal(j.params)
	kind := ""
	if j.params.TopK > 0 || j.params.Motif != "" {
		// Query jobs (top-K / targeted) carry their query fields inside
		// Params; the kind marks them for observability. Replay treats
		// them like plain jobs — jobFromRecord round-trips Params.
		kind = "query"
	}
	rec := store.JobRecord{
		ID:          j.id,
		Kind:        kind,
		Algorithm:   j.algorithm.String(),
		SeqName:     j.seq.Name(),
		SeqAlphabet: j.seq.Alphabet().Name(),
		SeqSymbols:  string(j.seq.Alphabet().Symbols()),
		SeqData:     j.seq.Data(),
		Params:      params,
		TimeoutMS:   j.timeout.Milliseconds(),
		State:       string(j.state),
		Attempts:    j.attempts,
		CreatedAt:   j.createdAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		Note:        j.note,
	}
	if j.state.Terminal() && j.result != nil {
		rec.Result, _ = json.Marshal(j.result)
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	return rec
}

// alphabetFor maps a recorded alphabet back to its canonical instance when
// name and symbols match, or rebuilds a custom alphabet from its symbols.
func alphabetFor(name, symbols string) (*seq.Alphabet, error) {
	for _, a := range []*seq.Alphabet{seq.DNA, seq.Protein, seq.Binary} {
		if a.Name() == name && string(a.Symbols()) == symbols {
			return a, nil
		}
	}
	return seq.NewAlphabet(name, symbols)
}

// decodeUnit rebuilds a mining unit's inputs from their journaled or wire
// form: the algorithm name, the recorded alphabet, the subject data and the
// Params JSON (empty decodes as zero Params), normalized. The data is one
// sequence named name, or, when fasta is set, a corpus's canonical
// multi-FASTA rendering split back into its shards.
func decodeUnit(algorithm, alphabet, symbols, name, data string, fasta bool, params []byte) (core.Algorithm, []*seq.Sequence, core.Params, error) {
	var np core.Params
	algo, err := core.ParseAlgorithm(strings.ToLower(algorithm))
	if err != nil {
		return algo, nil, np, err
	}
	alpha, err := alphabetFor(alphabet, symbols)
	if err != nil {
		return algo, nil, np, err
	}
	var seqs []*seq.Sequence
	if fasta {
		if seqs, err = seq.ReadFASTA(strings.NewReader(data), alpha); err != nil {
			return algo, nil, np, fmt.Errorf("re-splitting corpus: %w", err)
		}
	} else {
		s, err := seq.New(alpha, name, data)
		if err != nil {
			return algo, nil, np, err
		}
		seqs = []*seq.Sequence{s}
	}
	if len(params) > 0 {
		if err := json.Unmarshal(params, &np); err != nil {
			return algo, nil, np, fmt.Errorf("decoding params: %w", err)
		}
	}
	np, err = np.Normalize()
	return algo, seqs, np, err
}

// jobFromRecord reconstructs a Job (including its cache key and a live
// context rooted at the manager) from its durable record.
func (m *Manager) jobFromRecord(rec store.JobRecord) (*Job, error) {
	state := JobState(rec.State)
	switch state {
	case JobQueued, JobRunning, JobDone, JobFailed, JobCancelled, JobResourceExhausted:
	default:
		return nil, fmt.Errorf("unknown job state %q", rec.State)
	}
	algo, seqs, np, err := decodeUnit(rec.Algorithm, rec.SeqAlphabet, rec.SeqSymbols, rec.SeqName, rec.SeqData, false, rec.Params)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		id:         rec.ID,
		unit:       newUnit(algo, seqs[0], np),
		timeout:    time.Duration(rec.TimeoutMS) * time.Millisecond,
		ctx:        ctx,
		cancel:     cancel,
		state:      state,
		attempts:   rec.Attempts,
		createdAt:  rec.CreatedAt,
		startedAt:  rec.StartedAt,
		finishedAt: rec.FinishedAt,
		note:       rec.Note,
	}
	if len(rec.Result) > 0 {
		var res core.Result
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			cancel()
			return nil, fmt.Errorf("decoding result: %w", err)
		}
		j.result = &res
		j.levels = append([]core.LevelMetrics(nil), res.Levels...)
	}
	if rec.Error != "" {
		j.err = errors.New(rec.Error)
	}
	if state.Terminal() {
		cancel() // nothing left to cancel; release the context immediately
	}
	return j, nil
}

// RestoreSummary reports what Manager.Restore did with a recovered record
// set.
type RestoreSummary struct {
	// Terminal jobs were restored finished, their results queryable.
	Terminal int
	// Requeued jobs were interrupted (queued or running at crash time) and
	// are scheduled for re-execution after a per-attempt backoff.
	Requeued int
	// Exhausted jobs were interrupted but had spent their retry budget;
	// they are restored as failed (corpus jobs: partial, keeping the
	// journaled shards).
	Exhausted int
	// Skipped records could not be decoded and were dropped with a warning.
	Skipped int
	// ShardsReplayed counts corpus shards restored complete from their
	// journal checkpoints — work a resumed corpus did NOT redo.
	ShardsReplayed int
}

// Restore registers jobs recovered from the store: terminal jobs become
// queryable again (done results also re-warm the cache), and jobs that
// were queued or running at crash time are re-executed — each recovery
// costs one attempt from the retry budget, with exponential backoff
// between re-executions so a crash-looping job cannot hot-loop the daemon.
//
// Restore must run before the first Submit (cmd/permined restores during
// boot, before serving) so recovered identifiers cannot collide with new
// ones.
func (m *Manager) Restore(records []store.JobRecord) RestoreSummary {
	var sum RestoreSummary
	for _, rec := range records {
		if rec.Kind == "corpus" {
			m.restoreCorpus(rec, &sum)
			continue
		}
		j, err := m.jobFromRecord(rec)
		if err != nil {
			sum.Skipped++
			m.noteRecovered(recoverySkipped, "")
			m.cfg.Logger.Warn("skipping unrecoverable job record", "job", rec.ID, "err", err)
			continue
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			j.cancel()
			break
		}
		m.jobs.add(j)
		m.mu.Unlock()

		switch {
		case j.state.Terminal():
			sum.Terminal++
			m.noteRecovered(recoveryTerminal, j.state)
			if j.state == JobDone && j.result != nil && m.cfg.Cache != nil {
				m.cfg.Cache.Put(j.cacheKey, j.result)
			}
		case j.attempts >= m.cfg.RetryBudget:
			now := time.Now()
			j.mu.Lock()
			j.state = JobFailed
			j.finishedAt = now
			j.err = fmt.Errorf("crash recovery: retry budget exhausted after %d interrupted attempts", j.attempts)
			errMsg := j.err.Error()
			j.mu.Unlock()
			j.cancel()
			sum.Exhausted++
			m.noteRecovered(recoveryExhausted, JobFailed)
			m.cfg.Store.AppendOutcome(j.id, store.Outcome{
				State: string(JobFailed), Error: errMsg, FinishedAt: now,
			})
			m.cfg.Logger.Warn("recovered job exceeds retry budget", "job", j.id, "attempts", j.attempts)
		default:
			j.mu.Lock()
			j.attempts++
			attempts := j.attempts
			j.state = JobQueued
			j.startedAt = time.Time{} // the re-execution restarts the run clock
			j.levels = nil
			j.mu.Unlock()
			sum.Requeued++
			m.noteRecovered(recoveryRequeued, JobQueued)
			m.cfg.Store.AppendState(j.id, string(JobQueued), attempts, time.Now())
			delay := m.retryDelay(attempts)
			time.AfterFunc(delay, func() { m.enqueue(func() { m.runJob(j) }) })
			m.cfg.Logger.Info("requeueing interrupted job", "job", j.id,
				"attempt", attempts, "backoff", delay)
		}
	}
	return sum
}

// retryDelay is the backoff before re-executing a recovered job:
// RetryBackoff doubled per prior attempt, capped at one minute, then
// jittered uniformly into [d/2, d) — a restart with many interrupted jobs
// spreads their re-executions out instead of retrying in lockstep.
func (m *Manager) retryDelay(attempts int) time.Duration {
	d := m.cfg.RetryBackoff
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= time.Minute {
			d = time.Minute
			break
		}
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int64N(int64(half)))
}

// noteRecovered forwards one recovery outcome to metrics.
func (m *Manager) noteRecovered(outcome string, state JobState) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.JobRecovered(state, outcome)
	}
}
