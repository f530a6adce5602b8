package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"permine/internal/cluster"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/obs"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// This file wires internal/corpus behind the manager and the HTTP API:
// corpus submission splits a multi-FASTA input into per-sequence shards,
// the engine schedules them on the shared worker pool, per-shard
// checkpoints flow into the WAL as shard_done/shard_failed events, and the
// merged result (with per-shard provenance and a failed-shard manifest) is
// served from GET /v1/corpus/{id}.

// ErrCorpusNotFound reports an unknown corpus id.
var ErrCorpusNotFound = errors.New("server: corpus not found")

// ErrCorpusFinished rejects cancelling a corpus already terminal.
var ErrCorpusFinished = errors.New("server: corpus already finished")

// SubmitCorpus registers a sharded corpus mining job: one shard per
// sequence, mined with the same algorithm and parameters. The job starts
// immediately (no queued state — shards queue individually on the worker
// pool). timeout > 0 bounds the whole corpus; on expiry the job degrades
// to partial with the shards that finished in time.
func (m *Manager) SubmitCorpus(rctx context.Context, name string, seqs []*seq.Sequence, algo core.Algorithm, params core.Params, timeout time.Duration) (*corpus.Job, error) {
	_, span := obs.Start(rctx, "corpus.job",
		obs.KV("algorithm", algo.String()), obs.KV("shards", len(seqs)))
	defer span.End()
	np, err := m.normalize(params)
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	// Corpus jobs are the most expensive admission class: they fan out
	// into many shards and are never cache-derivable as a whole, so the
	// governor sheds them first when brownout begins.
	if err := m.admit(shedClassCorpus); err != nil {
		span.RecordError(err)
		return nil, err
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		span.RecordError(ErrShuttingDown)
		return nil, ErrShuttingDown
	}
	id := m.corpora.nextID()
	span.SetAttr("corpus", id)
	j, err := corpus.NewJob(corpus.Spec{
		ID: id, Name: name, Algorithm: algo, Params: np,
		Seqs: seqs, Ctx: ctx, Cancel: cancel, Trace: span.Context(),
	})
	if err != nil {
		m.mu.Unlock()
		cancel()
		span.RecordError(err)
		return nil, err
	}
	m.corpora.add(j)
	m.mu.Unlock()

	m.cfg.Store.AppendSubmit(corpusRecord(j, timeout))
	m.corpusTransition("", corpus.StateRunning)
	m.corpus.Start(j)
	if timeout > 0 {
		time.AfterFunc(timeout, func() {
			if m.corpus.Expire(j, timeout) {
				m.cfg.Logger.Warn("corpus deadline expired", "corpus", j.ID(), "timeout", timeout)
			}
		})
	}
	m.cfg.Logger.Info("corpus submitted", "corpus", id,
		"algorithm", algo.String(), "shards", len(seqs))
	return j, nil
}

// GetCorpus returns the corpus job with the given id.
func (m *Manager) GetCorpus(id string) (*corpus.Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.corpora.byID[id]
	return j, ok
}

// CorpusJobs returns snapshots of every retained corpus job, newest
// first, with per-shard detail and results stripped (list view).
func (m *Manager) CorpusJobs() []corpus.View {
	return listNewestFirst(&m.mu, m.corpora, func(j *corpus.Job) corpus.View {
		v := j.Snapshot()
		v.Shards, v.Result = nil, nil
		return v
	})
}

// CancelCorpus cancels a running corpus job; in-flight shards stop at the
// next boundary and revert to pending.
func (m *Manager) CancelCorpus(id string) (*corpus.Job, error) {
	j, ok := m.GetCorpus(id)
	if !ok {
		return nil, ErrCorpusNotFound
	}
	if !m.corpus.Cancel(j) {
		return j, ErrCorpusFinished
	}
	m.cfg.Logger.Info("corpus cancelled", "corpus", id)
	return j, nil
}

// runShard mines one corpus shard on a pool worker. It is cache-aware:
// shards keyed identically to single-sequence jobs share the result cache
// in both directions (the corpus engine consults its fault injector
// before calling the runner, so injected faults are never masked by a
// cache hit). Under a cluster the shard is first placed on the ring by its
// cache identity; remote failures return to the corpus engine, whose
// retry budget and backoff requeue the shard — re-placement on the next
// attempt lands on whatever membership the health checker has left alive.
func (m *Manager) runShard(ctx context.Context, j *corpus.Job, s *corpus.Shard) (*core.Result, error) {
	u := newUnit(j.Algorithm(), s.Seq(), j.Params())
	if m.cfg.Cache != nil {
		if res, ok := m.cfg.Cache.Get(u.cacheKey); ok {
			return res, nil
		}
	}
	if c := m.cfg.Cluster; c != nil {
		pl := c.Place(u.cacheKey.ID.SeqHash[:])
		if pl.Node != "" {
			if pl.Stolen {
				c.NoteShardStolen()
			}
			res, err := m.mineRemote(ctx, j.ID(), s.Index(), u, pl.Node)
			var remote *cluster.RemoteError
			if err != nil && !errors.As(err, &remote) && ctx.Err() == nil && !c.Alive(pl.Node) {
				// Transport-level failure against a peer health now rules
				// unplaceable: this shard is headed back to the queue
				// because its node died under it.
				c.NoteShardRequeued()
			}
			return res, err
		}
		// Local placement still journals the assignment so a restarted
		// coordinator can tell self-owned checkpoints from orphans.
		m.cfg.Store.AppendAssign(j.ID(), store.AssignRecord{
			Shard: s.Index(), Node: c.Self(), At: time.Now(),
		})
	}
	// Each shard charges its own child of the governor, bounded by the
	// job's per-run budget: one poisoned shard (giant PILs under a wide
	// gap) exhausts its own budget and degrades the corpus to partial
	// through the normal failed-shard machinery — it cannot take the
	// whole fleet's memory down with it.
	return m.mineLocal(ctx, u, nil)
}

// onShardEnd journals the shard checkpoint (the resume point a SIGKILL'd
// corpus job restarts from), publishes the per-shard SSE event and counts
// the outcome. The shard is terminal, so its getters are lock-free safe.
func (m *Manager) onShardEnd(j *corpus.Job, s *corpus.Shard) {
	rec := store.ShardRecord{
		Index:      s.Index(),
		Name:       s.Name(),
		State:      string(s.State()),
		Attempts:   s.Attempts(),
		FinishedAt: s.FinishedAt(),
	}
	if res := s.Result(); res != nil {
		rec.Result, _ = json.Marshal(res)
	}
	if err := s.Err(); err != nil {
		rec.Error = err.Error()
	}
	m.cfg.Store.AppendShard(j.ID(), rec)
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusShard(string(s.State()))
	}
	if m.cfg.Events != nil {
		m.cfg.Events.Publish(Event{Type: "shard", Job: j.ID(), Seq: s.Index() + 1, Data: s.View()})
	}
}

// onShardRetry surfaces one scheduled shard retry: counted (with its
// backoff) in metrics and streamed as a "retry" SSE event.
func (m *Manager) onShardRetry(j *corpus.Job, s *corpus.Shard, attempt int, err error, delay time.Duration) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusRetry(delay)
	}
	if m.cfg.Events != nil {
		m.cfg.Events.Publish(Event{Type: "retry", Job: j.ID(), Seq: s.Index() + 1, Data: map[string]any{
			"shard":      s.Index(),
			"attempt":    attempt,
			"error":      err.Error(),
			"backoff_ms": delay.Milliseconds(),
		}})
	}
}

// onCorpusEnd journals the terminal corpus outcome (merged result
// included), counts the transition and ends the job's SSE streams.
func (m *Manager) onCorpusEnd(j *corpus.Job) {
	v := j.Snapshot()
	out := store.Outcome{State: string(v.State), Note: v.Note, Error: v.Error}
	if v.FinishedAt != nil {
		out.FinishedAt = *v.FinishedAt
	}
	if v.Result != nil {
		out.Result, _ = json.Marshal(v.Result)
	}
	m.cfg.Store.AppendOutcome(j.ID(), out)
	m.corpusTransition(corpus.StateRunning, v.State)
	if m.cfg.Events != nil {
		end := v
		end.Result, end.Shards = nil, nil
		m.cfg.Events.EndJob(Event{Type: "end", Job: j.ID(), Seq: v.ShardsDone + v.ShardsFailed, Data: end})
	}
	m.cfg.Logger.Info("corpus finished", "corpus", j.ID(), "state", string(v.State),
		"shards_done", v.ShardsDone, "shards_failed", v.ShardsFailed)
}

// corpusTransition forwards a corpus state change to metrics.
func (m *Manager) corpusTransition(from, to corpus.State) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusTransition(string(from), string(to))
	}
}

// corpusRecord renders the durable submit record of a corpus job: Kind
// "corpus", with SeqData holding the canonical multi-FASTA rendering of
// every shard so a restart re-splits into identical shards.
func corpusRecord(j *corpus.Job, timeout time.Duration) store.JobRecord {
	seqs := j.Sequences()
	params, _ := json.Marshal(j.Params())
	var fasta bytes.Buffer
	_ = seq.WriteFASTA(&fasta, 0, seqs...)
	v := j.Snapshot()
	return store.JobRecord{
		ID:          j.ID(),
		Kind:        "corpus",
		Algorithm:   j.Algorithm().String(),
		SeqName:     j.Name(),
		SeqAlphabet: seqs[0].Alphabet().Name(),
		SeqSymbols:  string(seqs[0].Alphabet().Symbols()),
		SeqData:     fasta.String(),
		ShardCount:  len(seqs),
		Params:      params,
		TimeoutMS:   timeout.Milliseconds(),
		State:       string(v.State),
		Attempts:    v.Attempts,
		CreatedAt:   v.CreatedAt,
	}
}

// corpusFromRecord rebuilds a corpus job from its durable record: the
// canonical FASTA re-splits into identical shards, and journaled shard
// checkpoints are folded back in so completed shards are not re-mined.
func (m *Manager) corpusFromRecord(rec store.JobRecord) (*corpus.Job, error) {
	algo, seqs, np, err := decodeUnit(rec.Algorithm, rec.SeqAlphabet, rec.SeqSymbols, "", rec.SeqData, true, rec.Params)
	if err != nil {
		return nil, err
	}
	if rec.ShardCount != 0 && len(seqs) != rec.ShardCount {
		return nil, fmt.Errorf("corpus re-split into %d shards, record says %d", len(seqs), rec.ShardCount)
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j, err := corpus.NewJob(corpus.Spec{
		ID: rec.ID, Name: rec.SeqName, Algorithm: algo, Params: np,
		Seqs: seqs, Ctx: ctx, Cancel: cancel,
		Attempts: rec.Attempts, CreatedAt: rec.CreatedAt,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	for _, sh := range rec.Shards {
		var res *core.Result
		if len(sh.Result) > 0 {
			res = new(core.Result)
			if err := json.Unmarshal(sh.Result, res); err != nil {
				cancel()
				return nil, fmt.Errorf("decoding shard %d result: %w", sh.Index, err)
			}
		}
		if err := j.RestoreShard(sh.Index, corpus.ShardState(sh.State), sh.Attempts, res, sh.Error, sh.FinishedAt); err != nil {
			cancel()
			return nil, err
		}
	}
	if state := corpus.State(rec.State); state.Terminal() {
		var merged *corpus.Result
		if len(rec.Result) > 0 {
			merged = new(corpus.Result)
			if err := json.Unmarshal(rec.Result, merged); err != nil {
				cancel()
				return nil, fmt.Errorf("decoding merged result: %w", err)
			}
		}
		j.RestoreTerminal(state, merged, rec.Error, rec.Note, rec.StartedAt, rec.FinishedAt)
	}
	return j, nil
}

// restoreCorpus registers one recovered corpus job: terminal jobs become
// queryable again; interrupted jobs resume from their journaled shard
// checkpoints — re-mining only incomplete shards — after a jittered
// backoff, each resume costing one attempt from the crash-recovery
// budget. Budget exhaustion degrades to partial (the journaled shards
// still merge) instead of discarding completed work.
func (m *Manager) restoreCorpus(rec store.JobRecord, sum *RestoreSummary) {
	j, err := m.corpusFromRecord(rec)
	if err != nil {
		sum.Skipped++
		m.noteRecovered(recoverySkipped, "")
		m.cfg.Logger.Warn("skipping unrecoverable corpus record", "corpus", rec.ID, "err", err)
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.corpora.add(j)
	m.mu.Unlock()

	if j.State().Terminal() {
		sum.Terminal++
		m.corpusTransition("", j.State())
		m.noteRecovered(recoveryTerminal, "")
		return
	}

	replayed := j.ReplayedShards()
	sum.ShardsReplayed += replayed
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusShardsReplayed(replayed)
	}
	m.corpusTransition("", corpus.StateRunning)

	// Journaled assignments pointing at nodes outside the restarted
	// coordinator's membership are orphans: their shards never
	// checkpointed and will re-mine on survivors. Count them so the
	// requeue shows up in permine_cluster_shards_requeued_total.
	// Membership (not health) is the test — every peer is still Unknown
	// this early in boot.
	if c := m.cfg.Cluster; c != nil {
		checkpointed := make(map[int]bool, len(rec.Shards))
		for _, sh := range rec.Shards {
			checkpointed[sh.Index] = true
		}
		for _, a := range rec.Assigns {
			if a.Shard == store.WholeJob || checkpointed[a.Shard] {
				continue
			}
			if !c.Member(a.Node) {
				c.NoteShardRequeued()
				m.cfg.Logger.Warn("shard assigned to departed node; requeueing on survivors",
					"corpus", j.ID(), "shard", a.Shard, "node", a.Node)
			}
		}
	}

	if j.Attempts() >= m.cfg.RetryBudget {
		sum.Exhausted++
		m.noteRecovered(recoveryExhausted, "")
		m.corpus.Exhaust(j, fmt.Errorf(
			"crash recovery: retry budget exhausted after %d interrupted attempts", j.Attempts()))
		m.cfg.Logger.Warn("recovered corpus exceeds retry budget; merged journaled shards",
			"corpus", j.ID(), "attempts", j.Attempts())
		return
	}

	attempts := j.Attempts() + 1
	j.SetAttempts(attempts)
	sum.Requeued++
	m.noteRecovered(recoveryRequeued, "")
	m.cfg.Store.AppendState(j.ID(), string(corpus.StateRunning), attempts, time.Now())
	delay := m.retryDelay(attempts)
	time.AfterFunc(delay, func() { m.enqueue(func() { m.corpus.Start(j) }) })
	m.cfg.Logger.Info("resuming interrupted corpus", "corpus", j.ID(),
		"attempt", attempts, "backoff", delay,
		"shards_replayed", replayed, "shards_total", rec.ShardCount)
}

// corpusRequest is the JSON body of POST /v1/corpus: a multi-FASTA
// payload mined shard-per-sequence under shared parameters.
type corpusRequest struct {
	Name      string     `json:"name,omitempty"`
	Algorithm string     `json:"algorithm"`
	Params    paramsJSON `json:"params"`
	FASTA     string     `json:"fasta"`
	Alphabet  string     `json:"alphabet,omitempty"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

// handleCorpusSubmit implements POST /v1/corpus.
func (s *Server) handleCorpusSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r, func(fasta string) (corpusRequest, error) {
		jr, err := jobRequestFromQuery(r, fasta)
		return corpusRequest{
			Name:      r.URL.Query().Get("name"),
			Algorithm: jr.Algorithm,
			Params:    jr.Params,
			FASTA:     jr.FASTA,
			Alphabet:  jr.fastaAlphabet,
			TimeoutMS: jr.TimeoutMS,
		}, err
	})
	if err != nil {
		if tooLarge(w, err) {
			return
		}
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submit(w, req.Algorithm, req.Params, req.TimeoutMS, func(algo core.Algorithm, params core.Params, timeout time.Duration) (int, any, error) {
		if req.FASTA == "" {
			return 0, nil, errors.New("missing fasta: a corpus is a multi-FASTA payload")
		}
		alpha, err := resolveAlphabet(req.Alphabet)
		if err != nil {
			return 0, nil, err
		}
		seqs, err := seq.ReadFASTA(strings.NewReader(req.FASTA), alpha)
		if err != nil {
			return 0, nil, err
		}
		job, err := s.mgr.SubmitCorpus(r.Context(), req.Name, seqs, algo, params, timeout)
		if err != nil {
			return 0, nil, err
		}
		return http.StatusAccepted, job.Snapshot(), nil
	})
}

// handleCorpusList implements GET /v1/corpus.
func (s *Server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"corpus": s.mgr.CorpusJobs()})
}

// handleCorpusGet implements GET /v1/corpus/{id}.
func (s *Server) handleCorpusGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.GetCorpus(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "corpus %q not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleCorpusCancel implements DELETE /v1/corpus/{id}.
func (s *Server) handleCorpusCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.mgr.CancelCorpus(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrCorpusNotFound):
		apiError(w, http.StatusNotFound, "corpus %q not found", r.PathValue("id"))
		return
	case errors.Is(err, ErrCorpusFinished):
		apiError(w, http.StatusConflict, "corpus %q already %s", job.ID(), job.State())
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleCorpusEvents implements GET /v1/corpus/{id}/events: per-shard
// completions ("shard"), scheduled retries ("retry") and the terminal
// "end" as Server-Sent Events. Shards already terminal when the client
// connects are replayed from the snapshot. A daemon shutdown sends a final
// "shutdown" event before the stream closes.
func (s *Server) handleCorpusEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.mgr.GetCorpus(id)
	if !ok {
		apiError(w, http.StatusNotFound, "corpus %q not found", id)
		return
	}
	s.streamEvents(w, r, id, "shard", func() []Event {
		snap := job.Snapshot()
		var evs []Event
		for _, sv := range snap.Shards {
			if sv.State.Terminal() {
				evs = append(evs, Event{Type: "shard", Job: id, Seq: sv.Index + 1, Data: sv})
			}
		}
		if snap.State.Terminal() {
			end := snap
			end.Result, end.Shards = nil, nil
			evs = append(evs, Event{Type: "end", Job: id, Seq: len(evs), Data: end})
		}
		return evs
	})
}

// tooLarge maps a MaxBytesReader overflow to 413 with the limit in the
// message; returns false for other errors.
func tooLarge(w http.ResponseWriter, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	apiError(w, http.StatusRequestEntityTooLarge,
		"request body exceeds the %d-byte limit (see -max-body-bytes)", mbe.Limit)
	return true
}
