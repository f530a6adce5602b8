package pil

import (
	"runtime/debug"
	"testing"
)

// TestArenaRelease: Release hands the arena's standard slabs to the pool,
// drops its oversized slab and leaves a zero arena behind; a later
// arena's growth draws the pooled slabs and is charged as fresh growth.
func TestArenaRelease(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no GC may empty the pool mid-test
	var tr MemTracker
	var a Arena
	a.SetTracker(&tr)
	for _, n := range []int{10, arenaSlabEntries, arenaSlabEntries + 1} {
		l := a.Reserve(n)
		a.Commit(cap(l))
	}
	if len(a.slabs) != 3 || len(a.slabs[2]) != arenaSlabEntries+1 {
		t.Fatalf("arena holds slabs of %d entries, want two standard and one oversized", a.Cap())
	}
	standard := map[*Entry]bool{&a.slabs[0][0]: true, &a.slabs[1][0]: true}
	oversized := &a.slabs[2][0]
	charged := tr.Used()

	a.Release()
	if a.Cap() != 0 || a.cur != 0 || a.used != 0 || a.mem != nil {
		t.Fatalf("released arena not reset: cap %d cur %d used %d tracked %v", a.Cap(), a.cur, a.used, a.mem != nil)
	}
	if tr.Used() != charged {
		t.Errorf("Release moved the tracker from %d to %d bytes", charged, tr.Used())
	}
	// Drain the pool: the oversized slab must never come back. Under the
	// race detector sync.Pool drops puts at random, so only the absence
	// is certain there.
	var got []*slab
	for {
		s, ok := slabPool.Get().(*slab)
		if !ok {
			break
		}
		got = append(got, s)
		if &s[0] == oversized {
			t.Fatal("Release pooled the oversized slab")
		}
		delete(standard, &s[0])
	}
	if len(standard) != 0 && !raceEnabled {
		t.Errorf("%d released standard slabs missing from the pool", len(standard))
	}

	// A fresh arena draws pooled slabs before allocating and charges them
	// as the growth they are.
	for _, s := range got {
		slabPool.Put(s)
	}
	var tr2 MemTracker
	var b Arena
	b.SetTracker(&tr2)
	l := b.Reserve(10)
	b.Commit(cap(l))
	if want := arenaSlabEntries * EntryBytes; tr2.Used() != want {
		t.Errorf("pooled slab charged %d bytes, want %d", tr2.Used(), want)
	}
	b.Release()
}
