package swarm

import "math/rand"

// Topology is the deterministic spanning tree over a fleet's members: a
// complete k-ary tree laid over a seeded permutation of the member
// indices. The verifier folds its expected aggregate and bisects along
// it, the simulated fleet (internal/core) routes rounds and staggers its
// schedule along the same tree — one topology source, so the prover-side
// fold order and the verifier's expected aggregate cannot silently
// disagree.
//
// Positions are breadth-first: position p's parent is (p-1)/fanout and
// its children are p·fanout+1 … p·fanout+fanout. Seed 0 keeps the
// identity order (member i at position i), which matches the historical
// staggerOffset behaviour.
type Topology struct {
	fanout int
	order  []int // position -> member index
	pos    []int // member index -> position, -1 when removed
}

// DefaultFanout is the tree arity used when a configuration leaves the
// fanout unset: binary trees keep per-hop fold state tiny on low-end
// nodes while still giving O(log n) depth.
const DefaultFanout = 2

// NewTopology builds the tree for members 0..n-1. fanout < 1 defaults to
// DefaultFanout; n <= 0 yields an empty topology (Root reports none).
// The same (n, fanout, seed) triple always yields the same tree.
func NewTopology(n, fanout int, seed int64) *Topology {
	if fanout < 1 {
		fanout = DefaultFanout
	}
	if n < 0 {
		n = 0
	}
	t := &Topology{fanout: fanout, order: make([]int, n), pos: make([]int, n)}
	for i := 0; i < n; i++ {
		t.order[i] = i
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(n, func(i, j int) { t.order[i], t.order[j] = t.order[j], t.order[i] })
	}
	for p, m := range t.order {
		t.pos[m] = p
	}
	return t
}

// Len is the number of members currently in the tree.
func (t *Topology) Len() int { return len(t.order) }

// Fanout is the tree arity.
func (t *Topology) Fanout() int { return t.fanout }

// Root returns the root member, or ok=false for an empty topology.
func (t *Topology) Root() (member int, ok bool) {
	if len(t.order) == 0 {
		return 0, false
	}
	return t.order[0], true
}

// Pos returns member's tree position, or -1 if the member is out of
// range or was removed by Without.
func (t *Topology) Pos(member int) int {
	if member < 0 || member >= len(t.pos) {
		return -1
	}
	return t.pos[member]
}

// MemberAt returns the member at tree position p (0 = root), or -1 when
// p is out of range.
func (t *Topology) MemberAt(p int) int {
	if p < 0 || p >= len(t.order) {
		return -1
	}
	return t.order[p]
}

// Parent returns member's parent, or ok=false for the root and for
// members not in the tree.
func (t *Topology) Parent(member int) (parent int, ok bool) {
	p := t.Pos(member)
	if p <= 0 {
		return 0, false
	}
	return t.order[(p-1)/t.fanout], true
}

// Children appends member's children (in fold order) to buf and returns
// the extended slice, allocating only when buf lacks capacity. Members
// not in the tree have no children.
func (t *Topology) Children(member int, buf []int) []int {
	p := t.Pos(member)
	if p < 0 {
		return buf
	}
	first := p*t.fanout + 1
	for c := first; c < first+t.fanout && c < len(t.order); c++ {
		buf = append(buf, t.order[c])
	}
	return buf
}

// Subtree appends the members of root's subtree — root first, then level
// by level in position order — to buf and returns the extended slice,
// allocating only when buf lacks capacity. Members not in the tree have
// no subtree.
func (t *Topology) Subtree(root int, buf []int) []int {
	lo := t.Pos(root)
	if lo < 0 {
		return buf
	}
	// Each level of a subtree is one contiguous run of positions: the
	// children of positions lo…hi are lo·fanout+1 … hi·fanout+fanout.
	for hi := lo; lo < len(t.order); lo, hi = lo*t.fanout+1, hi*t.fanout+t.fanout {
		for p := lo; p <= hi && p < len(t.order); p++ {
			buf = append(buf, t.order[p])
		}
	}
	return buf
}

// Depth is member's distance from the root in hops (root = 0), or -1
// for members not in the tree.
func (t *Topology) Depth(member int) int {
	p := t.Pos(member)
	if p < 0 {
		return -1
	}
	d := 0
	for p > 0 {
		p = (p - 1) / t.fanout
		d++
	}
	return d
}

// Height is the maximum member depth: 0 for empty and single-member
// trees, O(log n) otherwise.
func (t *Topology) Height() int {
	if len(t.order) == 0 {
		return 0
	}
	return t.depthOfPos(len(t.order) - 1)
}

func (t *Topology) depthOfPos(p int) int {
	d := 0
	for p > 0 {
		p = (p - 1) / t.fanout
		d++
	}
	return d
}

// Without rebuilds the tree with member removed (the member-loss path):
// survivors keep their relative order, so the rebuild is deterministic
// and only positions at or after the removed member's slot shift. The
// receiver is unchanged.
func (t *Topology) Without(member int) *Topology {
	nt := &Topology{fanout: t.fanout, pos: make([]int, len(t.pos))}
	nt.order = make([]int, 0, len(t.order))
	for i := range nt.pos {
		nt.pos[i] = -1
	}
	for _, m := range t.order {
		if m == member {
			continue
		}
		nt.pos[m] = len(nt.order)
		nt.order = append(nt.order, m)
	}
	return nt
}
