package swarm

import "testing"

func TestTopologyEmpty(t *testing.T) {
	topo := NewTopology(0, 2, 0)
	if topo.Len() != 0 {
		t.Fatalf("Len = %d, want 0", topo.Len())
	}
	if _, ok := topo.Root(); ok {
		t.Fatalf("empty topology has a root")
	}
	if topo.Height() != 0 {
		t.Fatalf("Height = %d, want 0", topo.Height())
	}
	if topo.Pos(0) != -1 || topo.MemberAt(0) != -1 || topo.Depth(0) != -1 {
		t.Fatalf("empty topology resolves members")
	}
	if kids := topo.Children(0, nil); len(kids) != 0 {
		t.Fatalf("empty topology has children: %v", kids)
	}
	// Negative n behaves like empty rather than panicking.
	if NewTopology(-3, 2, 0).Len() != 0 {
		t.Fatalf("negative n not treated as empty")
	}
}

func TestTopologySingleMember(t *testing.T) {
	topo := NewTopology(1, 4, 0)
	root, ok := topo.Root()
	if !ok || root != 0 {
		t.Fatalf("Root = %d,%v want 0,true", root, ok)
	}
	if _, ok := topo.Parent(0); ok {
		t.Fatalf("root has a parent")
	}
	if kids := topo.Children(0, nil); len(kids) != 0 {
		t.Fatalf("single member has children: %v", kids)
	}
	if topo.Height() != 0 || topo.Depth(0) != 0 {
		t.Fatalf("single-member tree has nonzero height/depth")
	}
}

func TestTopologyFanoutLargerThanN(t *testing.T) {
	// fanout > n yields a one-level star: everyone hangs off the root.
	topo := NewTopology(5, 16, 0)
	root, _ := topo.Root()
	kids := topo.Children(root, nil)
	if len(kids) != 4 {
		t.Fatalf("star root has %d children, want 4", len(kids))
	}
	if topo.Height() != 1 {
		t.Fatalf("star height = %d, want 1", topo.Height())
	}
	for _, c := range kids {
		if p, ok := topo.Parent(c); !ok || p != root {
			t.Fatalf("member %d parent = %d,%v want %d,true", c, p, ok, root)
		}
		if topo.Depth(c) != 1 {
			t.Fatalf("member %d depth = %d, want 1", c, topo.Depth(c))
		}
	}
}

func TestTopologyFanoutDefaultsAndShape(t *testing.T) {
	// fanout <= 0 falls back to the documented default.
	topo := NewTopology(7, 0, 0)
	if topo.Fanout() != DefaultFanout {
		t.Fatalf("Fanout = %d, want %d", topo.Fanout(), DefaultFanout)
	}
	// Complete binary tree over 7 members, identity order: textbook heap
	// indexing.
	wantKids := map[int][]int{0: {1, 2}, 1: {3, 4}, 2: {5, 6}}
	for m, want := range wantKids {
		got := topo.Children(m, nil)
		if len(got) != len(want) {
			t.Fatalf("member %d children = %v, want %v", m, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("member %d children = %v, want %v", m, got, want)
			}
		}
	}
	if topo.Height() != 2 {
		t.Fatalf("Height = %d, want 2", topo.Height())
	}
	// Parent/Children are mutually consistent for every member.
	for m := 0; m < topo.Len(); m++ {
		for _, c := range topo.Children(m, nil) {
			if p, ok := topo.Parent(c); !ok || p != m {
				t.Fatalf("child %d of %d reports parent %d,%v", c, m, p, ok)
			}
		}
	}
}

func TestTopologySeededDeterministicPermutation(t *testing.T) {
	a := NewTopology(32, 3, 12345)
	b := NewTopology(32, 3, 12345)
	c := NewTopology(32, 3, 54321)
	sameAsA := true
	differsFromC := false
	for p := 0; p < 32; p++ {
		if a.MemberAt(p) != b.MemberAt(p) {
			sameAsA = false
		}
		if a.MemberAt(p) != c.MemberAt(p) {
			differsFromC = true
		}
	}
	if !sameAsA {
		t.Fatalf("same seed produced different trees")
	}
	if !differsFromC {
		t.Fatalf("different seeds produced identical trees")
	}
	// The permutation is a bijection: every member has a unique position.
	seen := make(map[int]bool)
	for p := 0; p < a.Len(); p++ {
		m := a.MemberAt(p)
		if m < 0 || m >= 32 || seen[m] {
			t.Fatalf("position %d holds invalid/duplicate member %d", p, m)
		}
		seen[m] = true
		if a.Pos(m) != p {
			t.Fatalf("Pos(%d) = %d, want %d", m, a.Pos(m), p)
		}
	}
}

func TestTopologyWithout(t *testing.T) {
	topo := NewTopology(7, 2, 99)
	victim := topo.MemberAt(2)
	nt := topo.Without(victim)
	if nt.Len() != 6 {
		t.Fatalf("Len after removal = %d, want 6", nt.Len())
	}
	if nt.Pos(victim) != -1 {
		t.Fatalf("removed member still has a position")
	}
	if topo.Pos(victim) == -1 {
		t.Fatalf("Without mutated the receiver")
	}
	// Survivors keep their relative order.
	prev := -1
	for p := 0; p < nt.Len(); p++ {
		m := nt.MemberAt(p)
		op := topo.Pos(m)
		if op <= prev {
			t.Fatalf("survivor order not preserved at position %d", p)
		}
		prev = op
	}
	// The rebuilt tree is still a valid complete tree.
	for m := 0; m < 7; m++ {
		if m == victim {
			continue
		}
		for _, c := range nt.Children(m, nil) {
			if p, ok := nt.Parent(c); !ok || p != m {
				t.Fatalf("rebuilt tree inconsistent at member %d", m)
			}
		}
	}
}

// TestTopologySubtree checks the level-run walk against the definition:
// a member is in root's subtree iff climbing parents from it reaches
// root. Position order is the walk order the swarm verifier reports
// missing members in.
func TestTopologySubtree(t *testing.T) {
	for _, tc := range []struct{ n, fanout int }{{1, 2}, {7, 2}, {13, 3}, {64, 4}, {9, 1}, {5, 8}} {
		topo := NewTopology(tc.n, tc.fanout, 42)
		if tc.n > 2 {
			topo = topo.Without(topo.MemberAt(tc.n / 2))
		}
		for root := -1; root <= tc.n; root++ {
			var want []int
			for p := 0; p < topo.Len() && topo.Pos(root) >= 0; p++ {
				m := topo.MemberAt(p)
				for a, ok := m, true; ok; a, ok = topo.Parent(a) {
					if a == root {
						want = append(want, m)
						break
					}
				}
			}
			got := topo.Subtree(root, []int{-7})
			if got[0] != -7 || len(got) != len(want)+1 {
				t.Fatalf("n=%d fanout=%d root=%d: Subtree = %v, want [-7] + %v", tc.n, tc.fanout, root, got, want)
			}
			for i, m := range want {
				if got[i+1] != m {
					t.Fatalf("n=%d fanout=%d root=%d: Subtree = %v, want [-7] + %v", tc.n, tc.fanout, root, got, want)
				}
			}
		}
	}
}

// TestTopologyChildrenNoAlloc: the per-hop fold path asks for children
// every round; with a caller-provided buffer the accessor must not
// allocate.
func TestTopologyChildrenNoAlloc(t *testing.T) {
	topo := NewTopology(64, 4, 7)
	buf := make([]int, 0, 8)
	root, _ := topo.Root()
	if n := testing.AllocsPerRun(1000, func() {
		buf = topo.Children(root, buf[:0])
	}); n != 0 {
		t.Fatalf("Children allocates %v/op with capacity available", n)
	}
}
