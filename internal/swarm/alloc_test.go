package swarm

import (
	"testing"

	"proverattest/internal/protocol"
)

// The swarm hot paths carry the same zero-allocation contract as the
// 1:1 frame codecs: the per-hop aggregate fold models firmware with no
// allocator, and the verifier's aggregate check runs once per round per
// fleet on the daemon's hot path.

// TestNodeFoldZeroAllocs pins the full per-hop round — gate + own tag +
// two child folds + finish — at zero allocations per round.
func TestNodeFoldZeroAllocs(t *testing.T) {
	p := testParams(7, 2)
	sk := protocol.DeriveSwarmKey(p.Master)
	key := p.deviceKey(0)
	node := NewNode(0, key[:], sk[:], p.Golden, 7)

	// Requests are pre-signed (node freshness demands a new nonce per
	// round); the child frame is reused with its nonce rewritten — the
	// fold is deliberately blind to child content.
	const rounds = 1100
	reqs := make([]*protocol.SwarmReq, rounds)
	for i := range reqs {
		reqs[i] = &protocol.SwarmReq{Nonce: uint64(i + 1), Root: 0}
		reqs[i].Sign(protocol.NewMAC(sk[:]))
	}
	child := &protocol.SwarmResp{Root: 1, Depth: 1, Bitmap: []byte{0x0A}}
	for i := range child.Aggregate {
		child.Aggregate[i] = byte(i)
	}
	out := &protocol.SwarmResp{Bitmap: make([]byte, 0, 8)}

	next := 0
	round := func() {
		req := reqs[next]
		next++
		if err := node.Begin(req); err != nil {
			t.Fatalf("round %d: %v", next, err)
		}
		child.Nonce = req.Nonce
		if err := node.AddChild(child); err != nil {
			t.Fatal(err)
		}
		if err := node.AddChild(child); err != nil {
			t.Fatal(err)
		}
		if err := node.FinishInto(out); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm scratch growth
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("per-hop fold allocates %v/round, want 0", n)
	}
}

// TestVerifierCheckZeroAllocs pins the aggregate accept path — echo
// checks, bitmap structure pass, full expected-aggregate recomputation,
// constant-time compare — at zero allocations per round.
func TestVerifierCheckZeroAllocs(t *testing.T) {
	mesh, v := newPair(t, 31, 2)
	req, resp := runRound(t, mesh, v)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := v.Check(req, resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("aggregate check allocates %v/round, want 0", n)
	}
}

// TestVerifierCheckRejectZeroAllocs: the adversary picks how often the
// reject branches run, so they must be as clean as the accept path.
func TestVerifierCheckRejectZeroAllocs(t *testing.T) {
	mesh, v := newPair(t, 31, 2)
	req, resp := runRound(t, mesh, v)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	bad := *resp
	bad.Bitmap = append([]byte(nil), resp.Bitmap...)
	bad.Aggregate[0] ^= 1
	if n := testing.AllocsPerRun(1000, func() {
		if err := v.Check(req, &bad); err != ErrSwarmMismatch {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("mismatch reject allocates %v/round, want 0", n)
	}
	stale := *resp
	stale.Bitmap = bad.Bitmap
	stale.Nonce++
	if n := testing.AllocsPerRun(1000, func() {
		if err := v.Check(req, &stale); err != ErrSwarmUnsolicited {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("unsolicited reject allocates %v/round, want 0", n)
	}
}
