package core

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Tree is an explicit multicast tree. Node identifiers are opaque integers
// (typically network addresses or chain indices). Children are stored in
// the order the parent sends to them, which matters: under the
// parameterized model the i-th send (0-based) leaves i*t_hold after the
// parent becomes ready.
type Tree struct {
	Node     int
	Children []*Tree
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int {
	if t == nil {
		return 0
	}
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	if t == nil {
		return 0
	}
	d := 0
	for _, c := range t.Children {
		if cd := c.Depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}

// MaxFanout returns the largest number of children of any node.
func (t *Tree) MaxFanout() int {
	if t == nil {
		return 0
	}
	f := len(t.Children)
	for _, c := range t.Children {
		if cf := c.MaxFanout(); cf > f {
			f = cf
		}
	}
	return f
}

// Nodes returns every node identifier in the tree, in preorder.
func (t *Tree) Nodes() []int {
	var out []int
	var walk func(*Tree)
	walk = func(n *Tree) {
		if n == nil {
			return
		}
		out = append(out, n.Node)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	return out
}

// Eval returns the contention-free multicast latency of the tree under the
// parameterized model: each node issues its sends in child order spaced
// t_hold apart (the first leaves immediately when the node becomes ready),
// and a message sent at time s is fully delivered at s + t_end. The
// latency is the time the last node finishes receiving.
func (t *Tree) Eval(thold, tend model.Time) model.Time {
	if t == nil {
		return 0
	}
	return t.finish(0, thold, tend)
}

func (t *Tree) finish(ready model.Time, thold, tend model.Time) model.Time {
	latest := ready
	for i, c := range t.Children {
		arrive := ready + model.Time(i)*thold + tend
		if f := c.finish(arrive, thold, tend); f > latest {
			latest = f
		}
	}
	return latest
}

// Arrivals returns the time each node finishes receiving the message,
// keyed by node identifier. The root's entry is 0.
func (t *Tree) Arrivals(thold, tend model.Time) map[int]model.Time {
	out := make(map[int]model.Time, t.Size())
	var walk func(n *Tree, ready model.Time)
	walk = func(n *Tree, ready model.Time) {
		out[n.Node] = ready
		for i, c := range n.Children {
			walk(c, ready+model.Time(i)*thold+tend)
		}
	}
	if t != nil {
		walk(t, 0)
	}
	return out
}

// Sends returns the total number of messages transmitted (tree edges).
func (t *Tree) Sends() int {
	if t == nil {
		return 0
	}
	return t.Size() - 1
}

// String renders the tree as an indented outline, children in send order.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Tree, depth int)
	walk = func(n *Tree, depth int) {
		fmt.Fprintf(&b, "%s%d\n", strings.Repeat("  ", depth), n.Node)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if t != nil {
		walk(t, 0)
	}
	return b.String()
}

// Validate checks structural invariants: no duplicate node identifiers and
// no nil children. It returns a descriptive error on the first violation.
func (t *Tree) Validate() error {
	if t == nil {
		return fmt.Errorf("core: nil tree")
	}
	seen := make(map[int]bool)
	var walk func(n *Tree) error
	walk = func(n *Tree) error {
		if n == nil {
			return fmt.Errorf("core: nil child in tree")
		}
		if seen[n.Node] {
			return fmt.Errorf("core: duplicate node %d in tree", n.Node)
		}
		seen[n.Node] = true
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t)
}

// Relabel returns a copy of the tree with every node identifier mapped
// through f. Useful for converting chain-index trees into address trees.
func (t *Tree) Relabel(f func(int) int) *Tree {
	if t == nil {
		return nil
	}
	out := &Tree{Node: f(t.Node)}
	if len(t.Children) > 0 {
		out.Children = make([]*Tree, len(t.Children))
		for i, c := range t.Children {
			out.Children[i] = c.Relabel(f)
		}
	}
	return out
}
