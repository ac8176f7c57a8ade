package swarm_test

import (
	"testing"

	"proverattest/internal/swarm"
)

// The verifier's aggregate check runs once per round per fleet on the
// daemon's hot path, so it carries the same zero-allocation contract as
// the 1:1 frame codecs. (The per-hop fold's contract is pinned on the
// protocol primitives the anchor folds with, in internal/protocol.)

// TestVerifierCheckZeroAllocs pins the aggregate accept path — echo
// checks, bitmap structure pass, full expected-aggregate recomputation,
// constant-time compare — at zero allocations per round.
func TestVerifierCheckZeroAllocs(t *testing.T) {
	fs := newFleet(t, fleetConfig(31, 2))
	v := fs.V
	req, resp := runRound(t, fs)
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
	fs := newFleet(t, fleetConfig(31, 2))
	v := fs.V
	req, resp := runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	bad := *resp
	bad.Bitmap = append([]byte(nil), resp.Bitmap...)
	bad.Aggregate[0] ^= 1
	if n := testing.AllocsPerRun(1000, func() {
		if err := v.Check(req, &bad); err != swarm.ErrSwarmMismatch {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("mismatch reject allocates %v/round, want 0", n)
	}
	stale := *resp
	stale.Bitmap = bad.Bitmap
	stale.Nonce++
	if n := testing.AllocsPerRun(1000, func() {
		if err := v.Check(req, &stale); err != swarm.ErrSwarmUnsolicited {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("unsolicited reject allocates %v/round, want 0", n)
	}
}
