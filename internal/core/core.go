// Package core implements the architecture-independent half of the paper:
// the OPT-tree algorithm (Algorithm 2.1), which constructs provably optimal
// multicast trees from the two parameters t_hold and t_end of the
// parameterized communication model, together with tree data structures,
// an analytic (contention-free) latency evaluator, and reference split
// functions for the binomial (U-mesh/U-min) and sequential baselines.
//
// The central object is the split table: for a multicast over i nodes
// (one source plus i-1 destinations), J(i) is the number of nodes that
// remain in the subtree containing the source after its first send, and
// T(i) is the minimum achievable multicast latency. The recurrence is
//
//	T(1) = 0
//	T(2) = t_end
//	T(i) = min over j of max( T(j) + t_hold, T(i-j) + t_end )
//
// where j is the size of the source-side part. The paper's O(k) algorithm
// exploits that the optimal j is non-decreasing in i and grows by at most
// one per step, so only j(i-1) and j(i-1)+1 need to be compared.
package core

import (
	"fmt"

	"repro/internal/model"
)

// SplitTable holds the output of a tree-shaping algorithm: for every
// multicast size i in [1, K], the size J(i) of the part that keeps the
// source after the first send. OPT, binomial and sequential trees are all
// expressed this way, which lets the architecture-dependent planners of
// package plan implement U-mesh, U-min, OPT-mesh and OPT-min uniformly.
type SplitTable interface {
	// K is the largest supported multicast size.
	K() int
	// J returns the source-side part size for a multicast of i nodes,
	// with 2 <= i <= K and 1 <= J(i) <= i-1.
	J(i int) int
}

// OptTable is the result of the OPT-tree dynamic program for fixed
// (t_hold, t_end): the optimal split sizes and optimal latencies for every
// multicast size up to K.
type OptTable struct {
	THold, TEnd model.Time

	j []int        // j[i] for i in [2,k]; index i
	t []model.Time // t[i] for i in [1,k]; index i
}

// NewOptTable runs Algorithm 2.1 and returns the optimal split table for
// multicasts of up to k nodes under the given parameters. It runs in O(k)
// time and panics if k < 1 or either parameter is negative.
func NewOptTable(k int, thold, tend model.Time) *OptTable {
	if k < 1 {
		panic(fmt.Sprintf("core: NewOptTable k=%d < 1", k))
	}
	if thold < 0 || tend < 0 {
		panic(fmt.Sprintf("core: NewOptTable negative parameters t_hold=%d t_end=%d", thold, tend))
	}
	ot := &OptTable{
		THold: thold,
		TEnd:  tend,
		j:     make([]int, k+1),
		t:     make([]model.Time, k+1),
	}
	ot.t[1] = 0
	if k >= 2 {
		ot.t[2] = tend
		ot.j[2] = 1
	}
	for i := 3; i <= k; i++ {
		j := ot.j[i-1]
		// Option A: keep the same split size as for i-1 nodes.
		a := max(ot.t[j]+thold, ot.t[i-j]+tend)
		// Option B: grow the source-side part by one.
		b := max(ot.t[j+1]+thold, ot.t[i-1-j]+tend)
		if a < b {
			ot.t[i] = a
			ot.j[i] = j
		} else {
			ot.t[i] = b
			ot.j[i] = j + 1
		}
	}
	return ot
}

// K returns the largest multicast size covered by the table.
func (ot *OptTable) K() int { return len(ot.t) - 1 }

// J returns the optimal source-side part size for a multicast of i nodes.
func (ot *OptTable) J(i int) int {
	if i < 2 || i > ot.K() {
		panic(fmt.Sprintf("core: OptTable.J(%d) out of range [2,%d]", i, ot.K()))
	}
	return ot.j[i]
}

// T returns the optimal (contention-free) multicast latency for i nodes.
func (ot *OptTable) T(i int) model.Time {
	if i < 1 || i > ot.K() {
		panic(fmt.Sprintf("core: OptTable.T(%d) out of range [1,%d]", i, ot.K()))
	}
	return ot.t[i]
}

// BinomialTable is the split table of the binomial (recursive doubling)
// multicast tree used by the U-mesh and U-min algorithms: the source-side
// part keeps ceil(i/2) nodes at every step. Binomial trees are optimal
// exactly when t_hold = t_end.
type BinomialTable struct{ Max int }

// K returns the largest supported multicast size.
func (b BinomialTable) K() int { return b.Max }

// J returns ceil(i/2), the binomial split.
func (b BinomialTable) J(i int) int {
	if i < 2 || i > b.Max {
		panic(fmt.Sprintf("core: BinomialTable.J(%d) out of range [2,%d]", i, b.Max))
	}
	return (i + 1) / 2
}

// SequentialTable is the split table of the sequential (separate
// addressing) tree: the source sends to one destination at a time and no
// destination ever forwards. It approaches optimality as t_hold grows
// relative to t_end.
type SequentialTable struct{ Max int }

// K returns the largest supported multicast size.
func (s SequentialTable) K() int { return s.Max }

// J returns i-1: the source-side part gives away a single node per send.
func (s SequentialTable) J(i int) int {
	if i < 2 || i > s.Max {
		panic(fmt.Sprintf("core: SequentialTable.J(%d) out of range [2,%d]", i, s.Max))
	}
	return i - 1
}

// ChainTable is the split table of the forwarding-chain tree: the source
// sends once and every node forwards to exactly one successor. It is the
// mirror image of SequentialTable and is included for analytic studies; it
// cannot be planned over an arbitrary source position (the source-side
// part has size 1), so package plan rejects it unless the source leads its
// segment.
type ChainTable struct{ Max int }

// K returns the largest supported multicast size.
func (c ChainTable) K() int { return c.Max }

// J returns 1: the source keeps only itself.
func (c ChainTable) J(i int) int {
	if i < 2 || i > c.Max {
		panic(fmt.Sprintf("core: ChainTable.J(%d) out of range [2,%d]", i, c.Max))
	}
	return 1
}

// Latency evaluates the contention-free multicast latency of the tree
// family described by a split table, for a multicast of i nodes, in
// delivery semantics (the multicast completes when the last node finishes
// receiving):
//
//	L(1) = 0
//	L(i) = max( L(i-J(i)) + t_end,  L(J(i)) + t_hold if J(i) > 1 else 0 )
//
// The paper's recurrence writes the source-side term as t[J(i)] + t_hold
// unconditionally; for t_hold <= t_end (the paper's regime) the two forms
// are provably identical because the t_end term dominates whenever
// J(i) = 1, and the tests assert this equivalence. The conditional form
// additionally evaluates t_hold > t_end tree shapes correctly.
func Latency(tab SplitTable, i int, thold, tend model.Time) model.Time {
	if i < 1 || i > tab.K() {
		panic(fmt.Sprintf("core: Latency(%d) out of range [1,%d]", i, tab.K()))
	}
	memo := make([]model.Time, i+1)
	for n := 2; n <= i; n++ {
		j := tab.J(n)
		memo[n] = memo[n-j] + tend
		if j > 1 && memo[j]+thold > memo[n] {
			memo[n] = memo[j] + thold
		}
	}
	return memo[i]
}

// OptimalLatency computes the true optimal multicast latency for k nodes
// by evaluating the full recurrence (minimizing over every split size, not
// just the two candidates of Algorithm 2.1), in the same delivery
// semantics as Latency. It runs in O(k^2) time and is used as an oracle to
// validate the O(k) algorithm.
func OptimalLatency(k int, thold, tend model.Time) model.Time {
	if k < 1 {
		panic(fmt.Sprintf("core: OptimalLatency k=%d < 1", k))
	}
	t := make([]model.Time, k+1)
	for i := 2; i <= k; i++ {
		best := model.Time(1<<62 - 1)
		for j := 1; j <= i-1; j++ {
			v := t[i-j] + tend
			if j > 1 && t[j]+thold > v {
				v = t[j] + thold
			}
			if v < best {
				best = v
			}
		}
		t[i] = best
	}
	return t[k]
}
