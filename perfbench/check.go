package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"permine"
	"permine/internal/oracle"
)

// The correctness gate. Supports are recomputed by a prefix-sum dynamic
// program written here, sharing no code with the miners; completeness is
// checked against the brute-force oracle on a short prefix; and each
// workload's sorted (chars, support) set is compared with a digest pinned
// when the benchmark was created (digests.json, written by --pin).

// counter recomputes sup(P) and N_l on one sequence.
//
// With f_j[p] the number of offset sequences matching the first j
// characters of P that end at position p, and gap [N, M]:
//
//	f_1[p] = [S[p] = P_1]
//	f_j[p] = [S[p] = P_j] · Σ f_{j-1}[q] for q in [p-M-1, p-N-1]
//
// and sup(P) = Σ_p f_l[p]. f_j is zero off the positions of P_j, so each
// row keeps prefix sums over those positions only, and a rank table
// (how many positions of a character precede p) turns each window sum
// into two lookups: one O(occurrences) pass per pattern character. N_l
// is the same recursion with every position matching (character 0).
type counter struct {
	data string
	gapN int
	gapM int
	pos  map[byte][]int32 // positions of each character, ascending
	rank map[byte][]int32 // rank[c][x] = number of positions of c below x
	rows [][]int64        // prefix sums of f_j over pos[path[j]], along the trie path
	path []byte
}

func newCounter(data string, g permine.Gap) *counter {
	return &counter{data: data, gapN: g.N, gapM: g.M, pos: map[byte][]int32{}, rank: map[byte][]int32{}}
}

// index builds the position list and rank table of character ch.
func (c *counter) index(ch byte) {
	if _, ok := c.pos[ch]; ok {
		return
	}
	rank := make([]int32, len(c.data)+1)
	var pos []int32
	for p := 0; p < len(c.data); p++ {
		rank[p] = int32(len(pos))
		if ch == 0 || c.data[p] == ch {
			pos = append(pos, int32(p))
		}
	}
	rank[len(c.data)] = int32(len(pos))
	c.pos[ch], c.rank[ch] = pos, rank
}

// extend pushes one more pattern character (0 = any character, for N_l).
func (c *counter) extend(ch byte) {
	c.index(ch)
	pos := c.pos[ch]
	cum := make([]int64, len(pos)+1)
	d := len(c.path)
	if d == 0 {
		for k := range pos {
			cum[k+1] = int64(k + 1)
		}
	} else {
		prev, prevRank := c.rows[d-1], c.rank[c.path[d-1]]
		for k, p := range pos {
			f := int64(0)
			if hi := int(p) - c.gapN - 1; hi >= 0 {
				lo := max(int(p)-c.gapM-1, 0)
				// Σ f_{j-1}[q] for q in [lo, hi].
				f = prev[prevRank[hi+1]] - prev[prevRank[lo]]
			}
			cum[k+1] = cum[k] + f
		}
	}
	c.rows = append(c.rows[:d], cum)
	c.path = append(c.path, ch)
}

// support returns sup(chars), reusing the rows of the longest common
// prefix with the previous query (so lexicographic order shares work).
func (c *counter) support(chars string) int64 {
	k := 0
	for k < len(c.path) && k < len(chars) && c.path[k] == chars[k] {
		k++
	}
	c.path, c.rows = c.path[:k], c.rows[:k]
	for i := k; i < len(chars); i++ {
		c.extend(chars[i])
	}
	if len(chars) == 0 {
		return 0
	}
	row := c.rows[len(chars)-1]
	return row[len(row)-1]
}

// offsets returns N_l, the number of length-l offset sequences.
func (c *counter) offsets(l int) int64 {
	c.path, c.rows = c.path[:0], c.rows[:0]
	for i := 0; i < l; i++ {
		c.extend(0)
	}
	row := c.rows[l-1]
	c.path, c.rows = c.path[:0], c.rows[:0]
	return row[len(row)-1]
}

// meets is the frequency rule sup/N_l >= ρs with the same relative
// tolerance the miners document for boundary supports.
func meets(sup, nl int64, rho float64) bool {
	return sup > 0 && float64(sup) >= rho*float64(nl)*(1-1e-12)
}

// verifyPatterns recomputes the support of every pattern in ps (or of a
// seeded sample of at most limit of them when limit > 0) and checks that
// each is frequent and carries the right ratio. It returns one message per
// wrong pattern (capped) and the number of patterns checked.
func verifyPatterns(data string, p permine.Params, ps []permine.Pattern, limit int, seed int64) ([]string, int) {
	picked := append([]permine.Pattern(nil), ps...)
	if limit > 0 && len(picked) > limit {
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
		picked = picked[:limit]
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].Chars < picked[j].Chars })
	c := newCounter(data, p.Gap)
	nl := map[int]int64{}
	for _, pt := range picked {
		if _, ok := nl[len(pt.Chars)]; !ok {
			nl[len(pt.Chars)] = c.offsets(len(pt.Chars))
		}
	}
	var bad []string
	for _, pt := range picked {
		sup := c.support(pt.Chars)
		n := nl[len(pt.Chars)]
		switch {
		case sup != pt.Support:
			bad = append(bad, fmt.Sprintf("pattern %s: support %d, reference %d", pt.Chars, pt.Support, sup))
		case !meets(sup, n, p.MinSupport):
			bad = append(bad, fmt.Sprintf("pattern %s: support %d of %d is below ρs %g", pt.Chars, sup, n, p.MinSupport))
		case math.Abs(pt.Ratio-float64(sup)/float64(n)) > 1e-9*pt.Ratio:
			bad = append(bad, fmt.Sprintf("pattern %s: ratio %g, reference %g", pt.Chars, pt.Ratio, float64(sup)/float64(n)))
		}
		if len(bad) >= 10 {
			break
		}
	}
	return bad, len(picked)
}

// checkComplete mines the first prefixLen characters of data with the
// run's algorithm and parameters and compares every pattern of length up
// to min(maxLen, the run's completeness bound n) with the brute-force
// oracle's full enumeration.
func checkComplete(data string, algo permine.Algorithm, p permine.Params, prefixLen, maxLen int) error {
	if prefixLen > len(data) {
		prefixLen = len(data)
	}
	s, err := permine.NewDNASequence("prefix", data[:prefixLen])
	if err != nil {
		return err
	}
	p.Workers = 1
	res, err := permine.Mine(context.Background(), algo, s, p)
	if err != nil {
		return fmt.Errorf("mining the %d-character prefix: %w", prefixLen, err)
	}
	hi := min(maxLen, res.N)
	start := p.StartLen
	if start == 0 {
		start = 3 // the miners' default first level
	}
	want, err := oracle.FrequentPatterns(s, p.Gap, p.MinSupport, start, hi)
	if err != nil {
		return err
	}
	var got []permine.Pattern
	for _, pt := range res.Patterns {
		if len(pt.Chars) <= hi {
			got = append(got, pt)
		}
	}
	if d1, d2 := digest(got), digest(want); d1 != d2 {
		return fmt.Errorf("%d-character prefix, lengths %d..%d: %d patterns mined, oracle finds %d (digest %s vs %s)",
			prefixLen, start, hi, len(got), len(want), d1, d2)
	}
	return nil
}

// digest hashes the (chars, support) set in the miners' output order
// (length, then lexicographic).
func digest(ps []permine.Pattern) string {
	sorted := append([]permine.Pattern(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool {
		if len(sorted[i].Chars) != len(sorted[j].Chars) {
			return len(sorted[i].Chars) < len(sorted[j].Chars)
		}
		return sorted[i].Chars < sorted[j].Chars
	})
	h := sha256.New()
	for _, pt := range sorted {
		fmt.Fprintf(h, "%s %d\n", pt.Chars, pt.Support)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// samePatterns reports the first difference between two pattern lists
// compared as (chars, support) sets, or "" when they are equal.
func samePatterns(got, want []permine.Pattern) string {
	if d1, d2 := digest(got), digest(want); d1 != d2 {
		return fmt.Sprintf("%d patterns (digest %s), library gives %d (digest %s)", len(got), d1, len(want), d2)
	}
	return ""
}

//go:embed digests.json
var digestsJSON []byte

// pinned returns the digest pinned for (workload, seed), if any.
func pinned(workload string, seed uint64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][fmt.Sprint(seed)]
	return d, ok
}
