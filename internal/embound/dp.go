package embound

import (
	"math"
)

// The sweeps below compute every K_r in one right-to-left pass by sharing
// suffix path counts across start offsets, instead of re-walking the
// W^m offset tree per start as the naive definition suggests.
//
// For position p and pattern length k define cnt_k(p): a code-sorted list
// of (pattern, multiplicity) pairs over all length-k offset sequences
// starting at p. Then
//
//	cnt_1(p)     = {S[p]: 1}
//	cnt_(k+1)(p) = prepend(S[p], Σ_{q ∈ [p+N+1, p+M+1]} cnt_k(q))
//
// and K_r is the largest multiplicity in cnt_(m+1)(r). Because cnt_k(p)
// merges paths that spell the same characters, its size is bounded by
// min(|Σ|^k, W^(k-1)) and is far smaller on repetitive (genomic) data.
// Only a sliding window of M+1 columns is retained, so memory stays
// modest even for long sequences.
//
// Each sweep covers one chunk [a, b) of start offsets (see Measure): its
// pass starts at top = min(L−1, b−2+maxspan(m+1)) and treats positions
// past top as empty, which is exact for every p < b.

// codeCount is one merged (pattern code, path multiplicity) pair.
type codeCount struct {
	code uint64
	n    int64
}

// mergeScratch is a worker's state for emSweepMerge.
type mergeScratch struct {
	cols  [][][]codeCount // cols[c][k] is cnt_(k+1) of the column in slot c
	pow   []uint64        // pow[k] = |Σ|^k
	heads []int
	lists [][]codeCount
}

// emSweepMerge is the list-merging variant of the sweep, used when the
// pattern code space is too large for dense scratch tables. It folds
// max K_p over p in [a, b) into w.best and reports false when the run
// stopped first.
func (w *worker) emSweepMerge(a, b int) bool {
	r := w.run
	s, g, m := r.s, r.g, r.m
	window := g.M + 2 // columns p+1 .. p+M+1 plus the one being built
	if w.merge == nil {
		w.charge(r.fixedBytes())
		size := uint64(s.Alphabet().Size())
		sc := &mergeScratch{
			cols:  make([][][]codeCount, window),
			pow:   make([]uint64, m+1),
			heads: make([]int, g.W()),
			lists: make([][]codeCount, g.W()),
		}
		for c := range sc.cols {
			sc.cols[c] = make([][]codeCount, m) // lengths 1..m stored; m+1 is folded into the max
		}
		sc.pow[0] = 1
		for k := 1; k <= m; k++ {
			sc.pow[k] = sc.pow[k-1] * size
		}
		w.merge = sc
	}
	sc := w.merge
	cols, heads, lists := sc.cols, sc.heads, sc.lists
	top := r.top(b)
	best := w.best

	// mergeInto merges cnt_k of the successor window of p, prepends
	// S[p], and appends to dst. trackMax reports the largest
	// multiplicity instead of requiring the caller to re-scan.
	mergeInto := func(dst []codeCount, p, k int, trackMax *int64) []codeCount {
		nlists := 0
		for q := p + g.N + 1; q <= min(p+g.M+1, top); q++ {
			l := cols[q%window][k-1]
			if len(l) > 0 {
				lists[nlists] = l
				heads[nlists] = 0
				nlists++
			}
		}
		if nlists == 0 {
			return dst
		}
		prefix := uint64(s.Code(p)) * sc.pow[k]
		for {
			// Find the smallest head code across the lists.
			minCode := uint64(math.MaxUint64)
			for i := 0; i < nlists; i++ {
				if heads[i] < len(lists[i]) && lists[i][heads[i]].code < minCode {
					minCode = lists[i][heads[i]].code
				}
			}
			if minCode == math.MaxUint64 {
				break
			}
			var total int64
			for i := 0; i < nlists; i++ {
				if heads[i] < len(lists[i]) && lists[i][heads[i]].code == minCode {
					total += lists[i][heads[i]].n
					heads[i]++
				}
			}
			if trackMax != nil {
				if total > *trackMax {
					*trackMax = total
				}
			} else {
				dst = append(dst, codeCount{code: prefix + minCode, n: total})
			}
		}
		return dst
	}

	const cellBytes = 16
	for p, tick := top, 0; p >= a; p, tick = p-1, tick-1 {
		if tick <= 0 {
			if !w.check() {
				w.best = best
				return false
			}
			tick = checkStride
		}
		col := cols[p%window]
		// cnt_1(p)
		c := cap(col[0])
		col[0] = append(col[0][:0], codeCount{code: uint64(s.Code(p)), n: 1})
		w.grew(c, cap(col[0]), cellBytes)
		// cnt_2 .. cnt_m stored
		for k := 2; k <= m; k++ {
			c := cap(col[k-1])
			col[k-1] = mergeInto(col[k-1][:0], p, k-1, nil)
			w.grew(c, cap(col[k-1]), cellBytes)
		}
		// cnt_(m+1): only its maximum multiplicity matters (K_p), and
		// only for the chunk's own offsets.
		if p < b {
			mergeInto(nil, p, m, &best)
		}
	}
	w.best = best
	return true
}

// cc32 is a compact (code, multiplicity) pair for the dense sweep.
type cc32 struct {
	code uint32
	n    int32
}

// touchedInit is the initial capacity of the dense sweep's touched list.
const touchedInit = 1024

// denseScratch is a worker's state for emSweepDense.
type denseScratch struct {
	acc     []int32  // window sums, valid where epoch == cur
	epoch   []uint32 // stamp of the accumulation each acc cell belongs to
	cur     uint32
	touched []uint32 // codes stamped in the current accumulation
	cols    [][][]cc32
	pow     []uint32
}

// emSweepDense is the hot variant of the sweep for small code spaces
// (|Σ|^m <= 2^24 and W^m < 2^31, which covers DNA at the paper's m = 10):
// window sums are accumulated in an epoch-stamped dense table instead of
// sorted-list merges, and list cells are 8 bytes. It folds max K_p over
// p in [a, b) into w.best and reports false when the run stopped first.
func (w *worker) emSweepDense(a, b int) bool {
	r := w.run
	s, g, m := r.s, r.g, r.m
	window := g.M + 2
	if w.dense == nil {
		w.charge(r.fixedBytes())
		size := uint32(s.Alphabet().Size())
		codeSpace := 1
		for k := 0; k < m; k++ {
			codeSpace *= int(size)
		}
		sc := &denseScratch{
			acc:     make([]int32, codeSpace),
			epoch:   make([]uint32, codeSpace),
			touched: make([]uint32, 0, touchedInit),
			cols:    make([][][]cc32, window),
			pow:     make([]uint32, m+1),
		}
		for c := range sc.cols {
			sc.cols[c] = make([][]cc32, m)
		}
		sc.pow[0] = 1
		for k := 1; k <= m; k++ {
			sc.pow[k] = sc.pow[k-1] * size
		}
		w.dense = sc
	}
	sc := w.dense
	acc, epoch, cols, pow := sc.acc, sc.epoch, sc.cols, sc.pow
	cur, touched := sc.cur, sc.touched
	top := r.top(b)
	best := w.best
	// The hot loop keeps cur, touched and best in locals; every exit
	// stores them back.

	const cellBytes, codeBytes = 8, 4
	for p, tick := top, 0; p >= a; p, tick = p-1, tick-1 {
		if tick <= 0 {
			if !w.check() {
				sc.cur, sc.touched, w.best = cur, touched, best
				return false
			}
			tick = checkStride
		}
		col := cols[p%window]
		c := cap(col[0])
		col[0] = append(col[0][:0], cc32{code: uint32(s.Code(p)), n: 1})
		w.grew(c, cap(col[0]), cellBytes)
		hi := min(p+g.M+1, top)
		for k := 2; k <= m; k++ {
			cur++
			tc := cap(touched)
			touched = touched[:0]
			for q := p + g.N + 1; q <= hi; q++ {
				for _, e := range cols[q%window][k-2] {
					if epoch[e.code] != cur {
						epoch[e.code] = cur
						acc[e.code] = e.n
						touched = append(touched, e.code)
					} else {
						acc[e.code] += e.n
					}
				}
			}
			w.grew(tc, cap(touched), codeBytes)
			dst := col[k-1][:0]
			c := cap(dst)
			prefix := uint32(s.Code(p)) * pow[k-1]
			for _, code := range touched {
				dst = append(dst, cc32{code: prefix + code, n: acc[code]})
			}
			w.grew(c, cap(dst), cellBytes)
			col[k-1] = dst
		}
		if p >= b {
			continue // an overlap offset: its K_p belongs to the next chunk
		}
		// Level m+1: only the maximum multiplicity matters. The first
		// character is fixed (S[p]), so grouping by the m-length
		// suffix code is enough.
		cur++
		for q := p + g.N + 1; q <= hi; q++ {
			for _, e := range cols[q%window][m-1] {
				if epoch[e.code] != cur {
					epoch[e.code] = cur
					acc[e.code] = e.n
				} else {
					acc[e.code] += e.n
				}
				if int64(acc[e.code]) > best {
					best = int64(acc[e.code])
				}
			}
		}
	}
	sc.cur, sc.touched, w.best = cur, touched, best
	return true
}
