package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// jobIndex retains one kind of job for lookup and listing: single-sequence
// jobs ("j-" ids) or corpus jobs ("c-" ids). It holds the id map, the
// creation order, retention pruning and the id counter. Every method
// requires the manager's mu.
type jobIndex[J interface{ ID() string }] struct {
	prefix   string
	retain   int
	terminal func(J) bool
	byID     map[string]J
	order    []string // creation order, for retention pruning
	last     uint64   // highest id number registered so far
}

func newJobIndex[J interface{ ID() string }](prefix string, retain int, terminal func(J) bool) *jobIndex[J] {
	return &jobIndex[J]{prefix: prefix, retain: retain, terminal: terminal, byID: make(map[string]J)}
}

// nextID returns the id the next registered job takes. Nothing is
// reserved: the caller registers the job before releasing the manager's
// mu, or the id stays free.
func (x *jobIndex[J]) nextID() string {
	return fmt.Sprintf("%s-%06d", x.prefix, x.last+1)
}

// add registers j and prunes the oldest terminal jobs beyond the
// retention bound. The id counter rises to j's number, so a job restored
// under its journaled id never collides with a new one.
func (x *jobIndex[J]) add(j J) {
	if n, err := strconv.ParseUint(strings.TrimPrefix(j.ID(), x.prefix+"-"), 10, 64); err == nil && n > x.last {
		x.last = n
	}
	x.byID[j.ID()] = j
	x.order = append(x.order, j.ID())
	if len(x.byID) <= x.retain {
		return
	}
	kept := x.order[:0]
	for _, id := range x.order {
		old, ok := x.byID[id]
		if !ok {
			continue
		}
		if len(x.byID) > x.retain && x.terminal(old) {
			delete(x.byID, id)
			continue
		}
		kept = append(kept, id)
	}
	x.order = kept
}

// listNewestFirst renders the jobs x retains, newest first, through view.
// It takes the order under mu (the manager's) and renders outside it, so
// snapshots never hold the manager lock.
func listNewestFirst[J interface{ ID() string }, V any](mu *sync.Mutex, x *jobIndex[J], view func(J) V) []V {
	mu.Lock()
	ordered := make([]J, 0, len(x.byID))
	for i := len(x.order) - 1; i >= 0; i-- {
		if j, ok := x.byID[x.order[i]]; ok {
			ordered = append(ordered, j)
		}
	}
	mu.Unlock()
	views := make([]V, len(ordered))
	for i, j := range ordered {
		views[i] = view(j)
	}
	return views
}
