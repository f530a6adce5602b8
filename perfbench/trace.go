package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share Op; Parent is the enclosing span's ID (0 for the operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op allocates a fresh operation id.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"epoch": t.epoch, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes is the per-name aggregate of span self time: a span's duration
// minus the part of its interval its children cover.
type selfTimes struct {
	count map[string]int
	self  map[string]float64 // seconds
	// unattributed is, over every root span that has children, the share
	// of the roots' total duration that no child covers.
	unattributed float64
}

func (t *tracer) selfTimes() selfTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	st := selfTimes{count: map[string]int{}, self: map[string]float64{}}
	var rootDur, rootUncovered int64
	for _, s := range t.spans {
		kids := children[s.ID]
		self := s.End - s.Start - covered(s, kids)
		st.count[s.Name]++
		st.self[s.Name] += float64(self) / 1e9
		if s.Parent == 0 && len(kids) > 0 {
			rootDur += s.End - s.Start
			rootUncovered += self
		}
	}
	if rootDur > 0 {
		st.unattributed = float64(rootUncovered) / float64(rootDur)
	}
	return st
}

// covered returns the length of the union of the kids' intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// spanMetrics renders the self time of every span name as mean seconds
// per span, plus trace.unattributed_frac.
func spanMetrics(tr *tracer, names []string, into map[string]metric) {
	st := tr.selfTimes()
	for _, n := range names {
		v := 0.0
		if c := st.count[n]; c > 0 {
			v = st.self[n] / float64(c)
		}
		into["self."+n+"_s"] = metric{v, "s"}
	}
	into["trace.unattributed_frac"] = metric{st.unattributed, "ratio"}
}
