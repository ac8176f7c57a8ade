package protocol_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"proverattest/internal/cluster"
	"proverattest/internal/protocol"
)

// Unissued is the one Verifier method a caller may run without its lock:
// attestd's serve loop refuses, before the device lock, a response whose
// nonce lies above every nonce the device was issued. These tests pin the
// mark it reads to the nonce stream's position after every move of the
// stream, and its ordering against a concurrent issuer.

func newUnissuedVerifier(t *testing.T) *protocol.Verifier {
	t.Helper()
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness: protocol.FreshCounter,
		Auth:      protocol.NewHMACAuth([]byte("request-auth-key")),
		AttestKey: []byte("k-attest-20-bytes!!!"),
		Golden:    bytes.Repeat([]byte{0x5A}, 1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// wantMark fails unless the verifier's mark is exactly want: want is not
// beyond it and want+1 is.
func wantMark(t *testing.T, v *protocol.Verifier, step string, want uint64) {
	t.Helper()
	if v.Unissued(want) || !v.Unissued(want+1) {
		t.Fatalf("%s: mark is not %d: Unissued(%d) = %v, Unissued(%d) = %v",
			step, want, want, v.Unissued(want), want+1, v.Unissued(want+1))
	}
}

// issueAll moves v's stream through each of its three issuing calls and
// returns the attestation nonces and the command nonce it issued.
func issueAll(t *testing.T, v *protocol.Verifier) (reqs []uint64, cmd uint64) {
	t.Helper()
	_, n, err := v.Issue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMark(t, v, "Issue", n)
	req, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	wantMark(t, v, "NewRequest", req.Nonce)
	c, err := v.NewCommand(protocol.CmdClockSync, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMark(t, v, "NewCommand", c.Nonce)
	return []uint64{n, req.Nonce}, c.Nonce
}

// TestUnissuedTracksNonceStream: the mark equals the newest nonce after
// Issue, NewRequest, NewCommand and ImportState, whether the import keeps
// the stream's position, moves it back (a lower NonceSeq) or jumps it
// forward (a snapshot through JumpForRestart or JumpForReplica), and
// every pending nonce is at or below it.
func TestUnissuedTracksNonceStream(t *testing.T) {
	v := newUnissuedVerifier(t)
	wantMark(t, v, "new verifier", 0)
	reqs, cmd := issueAll(t, v)
	for _, n := range reqs {
		if !v.IsPending(n) || v.Unissued(n) {
			t.Fatalf("request %d: pending %v, Unissued %v; want pending at or below the mark", n, v.IsPending(n), v.Unissued(n))
		}
	}
	if !v.IsCommandPending(cmd) || v.Unissued(cmd) {
		t.Fatalf("command %d: pending %v, Unissued %v; want pending at or below the mark", cmd, v.IsCommandPending(cmd), v.Unissued(cmd))
	}

	exported := v.ExportState()
	snap := cluster.Snapshot{State: exported}
	for _, tc := range []struct {
		name string
		st   protocol.VerifierState
	}{
		{"exact", exported},
		{"lower", protocol.VerifierState{Counter: 1, NonceSeq: 1}},
		{"JumpForRestart", snap.JumpForRestart().State},
		{"JumpForReplica", snap.JumpForReplica().State},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newUnissuedVerifier(t)
			old, oldCmd := issueAll(t, w) // pending on w, dropped by the import
			w.ImportState(tc.st)
			wantMark(t, w, "ImportState", tc.st.NonceSeq)
			if w.Outstanding() != 0 {
				t.Fatalf("Outstanding = %d after import, want 0", w.Outstanding())
			}
			for _, n := range append(old, oldCmd) {
				if w.IsPending(n) || w.IsCommandPending(n) {
					t.Fatalf("nonce %d still pending after import", n)
				}
			}
			reqs, cmd := issueAll(t, w)
			if reqs[0] != tc.st.NonceSeq+1 {
				t.Fatalf("first nonce after import = %d, want %d", reqs[0], tc.st.NonceSeq+1)
			}
			for _, n := range append(reqs, cmd) {
				if w.Unissued(n) {
					t.Fatalf("pending nonce %d lies beyond the mark", n)
				}
			}
		})
	}
}

// TestUnissuedRacesIssue: one goroutine issues and abandons under a mutex
// and publishes each nonce only after Issue returns, as attestd's issue
// loop sends a request only after issuing it; another reads the newest
// published nonce and checks it without the mutex. A nonce read after its
// publication is never beyond the mark. Run under -race it also shows
// that Unissued shares no unsynchronized state with the locked methods.
func TestUnissuedRacesIssue(t *testing.T) {
	v := newUnissuedVerifier(t)
	const rounds = 20000
	var (
		mu        sync.Mutex
		published atomic.Uint64
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf []byte
		for i := 0; i < rounds; i++ {
			mu.Lock()
			var (
				n   uint64
				err error
			)
			buf, n, err = v.Issue(buf[:0], 0)
			if err == nil {
				v.Abandon(n)
			}
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
			published.Store(n)
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		n := published.Load()
		if v.Unissued(n) {
			t.Fatalf("published nonce %d lies beyond the mark", n)
		}
		if !v.Unissued(rounds + 1) {
			t.Fatalf("nonce %d, never issued, reads as issued", rounds+1)
		}
	}
	if n := published.Load(); n != rounds {
		t.Fatalf("issuer published %d nonces, want %d", n, rounds)
	}
}
