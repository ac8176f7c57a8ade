package protocol

import "testing"

// The quiescent-fleet contract: once a full measurement has armed both
// sides, every clean round is O(1) on the prover and a single memoized
// compare on the verifier — and neither side allocates per frame, since
// a quiescent fleet emits these at the attestation rate forever.

// fastRig builds a verifier/responder pair and plays the arming full
// round, leaving both sides ready for fast rounds.
func fastRig(t *testing.T) (*Verifier, *FastResponder) {
	t.Helper()
	v, fr, _ := fastRigKeyed(t)
	return v, fr
}

func fastRigKeyed(t *testing.T) (*Verifier, *FastResponder, []byte) {
	t.Helper()
	v, fr, key := fastPair(t)
	req, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.AllowFast {
		t.Fatal("request granted fast permission before any verified measurement")
	}
	var resp AttResp
	if fr.RespondInto(req, &resp) {
		t.Fatal("responder took the fast path with a dirty monitor")
	}
	if ok, err := v.CheckDecodedResponse(&resp); !ok {
		t.Fatalf("arming full round rejected: %v", err)
	}
	if !v.HasFastState() {
		t.Fatal("verified full measurement did not arm the verifier's fast state")
	}
	return v, fr, key
}

// fastPair builds a fast-path verifier and a responder over the same key
// and golden image, neither armed yet.
func fastPair(t *testing.T) (*Verifier, *FastResponder, []byte) {
	t.Helper()
	key := []byte("0123456789abcdef0123")
	golden := make([]byte, 4096)
	for i := range golden {
		golden[i] = byte(i)
	}
	v, err := NewVerifier(VerifierConfig{
		Freshness:     FreshCounter,
		Auth:          NewHMACAuth(key),
		AttestKey:     key,
		Golden:        golden,
		AllowFastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, NewFastResponder(key, golden), key
}

func TestFastRoundTrip(t *testing.T) {
	v, fr := fastRig(t)
	for round := 0; round < 3; round++ {
		req, err := v.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		if !req.AllowFast {
			t.Fatalf("round %d: armed verifier withheld fast permission", round)
		}
		var resp AttResp
		if !fr.RespondInto(req, &resp) {
			t.Fatalf("round %d: clean responder fell back to the full MAC", round)
		}
		if ok, err := v.CheckDecodedResponse(&resp); !ok {
			t.Fatalf("round %d: fast response rejected: %v", round, err)
		}
	}
	if v.FastAccepted != 3 || v.Rejected != 0 {
		t.Fatalf("FastAccepted = %d Rejected = %d, want 3, 0", v.FastAccepted, v.Rejected)
	}
}

// TestFastWithheldWhileFullPending: fast permission binds a request to
// the last verified full digest, but an in-order prover re-arms on every
// full measurement it makes. So a request issued while a newer
// full-measurement request is still outstanding must demand the full MAC
// as well; granting it fast permission bound it to a digest the honest
// prover had already replaced, and its fast answer was refused as a
// mismatch. A full request older than the verified one holds nothing: the
// prover dropped it.
func TestFastWithheldWhileFullPending(t *testing.T) {
	v, fr, _ := fastPair(t)
	newReq := func() *AttReq {
		t.Helper()
		req, err := v.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	answer := func(req *AttReq) (fast bool) {
		t.Helper()
		var resp AttResp
		fast = fr.RespondInto(req, &resp)
		if ok, err := v.CheckDecodedResponse(&resp); !ok {
			t.Fatalf("honest in-order answer to nonce %d refused: %v", req.Nonce, err)
		}
		return fast
	}

	req1, req2 := newReq(), newReq()
	answer(req1) // arms the verifier; req2 is still outstanding
	req3 := newReq()
	if req3.AllowFast {
		t.Fatal("fast permission granted while a full-measurement request is outstanding")
	}
	answer(req2)
	if answer(req3) {
		t.Fatal("responder answered a full-measurement request fast")
	}
	if req4 := newReq(); !req4.AllowFast || !answer(req4) {
		t.Fatal("fast path not granted once every full-measurement request was answered")
	}

	// A full request the prover dropped (here, never delivered) is older
	// than the measurement that re-arms the record, so it holds nothing.
	v.DropFastState()
	newReq() // dropped
	answer(newReq())
	if !newReq().AllowFast {
		t.Fatal("fast permission withheld for a full request older than the verified one")
	}
	if v.FastAccepted != 1 || v.Rejected != 0 {
		t.Fatalf("FastAccepted = %d Rejected = %d, want 1, 0", v.FastAccepted, v.Rejected)
	}
}

// TestMeasuringFull: a pending full request counts as in measurement
// until it is answered, an answer to it is refused (the request itself
// stays pending for the genuine answer), or it is abandoned; a fast
// request never does. Once a request has been abandoned before the prover
// ever answered, none counts until an answer arrives.
func TestMeasuringFull(t *testing.T) {
	v, fr, _ := fastPair(t)
	newReq := func() *AttReq {
		t.Helper()
		req, err := v.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	answer := func(req *AttReq) {
		t.Helper()
		var resp AttResp
		fr.RespondInto(req, &resp)
		if ok, err := v.CheckDecodedResponse(&resp); !ok {
			t.Fatalf("honest answer to nonce %d refused: %v", req.Nonce, err)
		}
	}

	lost := newReq()
	if !v.MeasuringFull(lost.Nonce) {
		t.Fatal("unanswered full request not in measurement")
	}
	v.Abandon(lost.Nonce) // unanswered, before the prover ever answered
	req := newReq()
	if v.MeasuringFull(req.Nonce) {
		t.Fatal("request counted as in measurement after one was lost before any answer")
	}
	answer(req)

	v.DropFastState()
	req = newReq()
	if !v.MeasuringFull(req.Nonce) {
		t.Fatal("unanswered full request not in measurement once the prover has answered")
	}
	if ok, _ := v.CheckDecodedResponse(&AttResp{Nonce: req.Nonce, Counter: req.Counter}); ok {
		t.Fatal("wrong measurement accepted")
	}
	if v.MeasuringFull(req.Nonce) || !v.IsPending(req.Nonce) {
		t.Fatal("after a refused answer the request must stay pending but not count as in measurement")
	}
	answer(req)

	fast := newReq()
	if !fast.AllowFast || v.MeasuringFull(fast.Nonce) {
		t.Fatal("fast request counted as a full measurement")
	}
	v.Abandon(fast.Nonce)
	v.DropFastState()
	if req = newReq(); !v.MeasuringFull(req.Nonce) {
		t.Fatal("a request lost after the prover answered stopped the wait")
	}
}

// TestFastTaintFallsBackToFullMAC: a store to attested memory costs the
// prover its fast-path privilege until the next full measurement.
func TestFastTaintFallsBackToFullMAC(t *testing.T) {
	v, fr := fastRig(t)
	fr.Taint()
	req, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	var resp AttResp
	if fr.RespondInto(req, &resp) {
		t.Fatal("tainted responder answered fast")
	}
	if ok, err := v.CheckDecodedResponse(&resp); !ok {
		t.Fatalf("full remeasurement of unchanged memory rejected: %v", err)
	}
	// The full round re-armed both sides.
	req2, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	if !req2.AllowFast || !fr.Clean() {
		t.Fatal("full round did not restore the fast path")
	}
}

// TestFastEpochDesyncRejected: a fast MAC computed over an epoch the
// verifier never verified (the lying prover's out-of-band rearm) must be
// refused, and the refusal must drop the verifier's fast state so the
// next request demands the full MAC.
func TestFastEpochDesyncRejected(t *testing.T) {
	v, fr, key := fastRigKeyed(t)
	req, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	resp := AttResp{
		Nonce:       req.Nonce,
		Counter:     req.Counter,
		Fast:        true,
		Epoch:       2, // verifier verified epoch 1
		Measurement: FastMAC(key, req, 2, &fr.digest),
	}
	if ok, err := v.CheckDecodedResponse(&resp); ok || err != ErrFastMismatch {
		t.Fatalf("desynced fast response: ok=%v err=%v, want ErrFastMismatch", ok, err)
	}
	if v.HasFastState() {
		t.Fatal("fast mismatch did not drop the verifier's fast state")
	}
	req2, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req2.AllowFast {
		t.Fatal("request after a fast mismatch still granted fast permission")
	}
	if v.FastRejected != 1 {
		t.Fatalf("FastRejected = %d, want 1", v.FastRejected)
	}
}

// TestFastResponderCleanPathZeroAllocs pins the prover-side O(1) answer
// at zero allocations per frame.
func TestFastResponderCleanPathZeroAllocs(t *testing.T) {
	v, fr := fastRig(t)
	req, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	var resp AttResp
	assertZeroAllocs(t, "FastResponder.RespondInto clean", func() {
		if !fr.RespondInto(req, &resp) {
			t.Fatal("clean responder fell back to the full MAC")
		}
	})
}

// TestVerifierFastAcceptZeroAllocs pins the verifier-side fast accept —
// pending lookup, memoized constant-time compare, retire — at zero
// allocations per frame. The pending entry is re-armed between calls so
// the same accept path runs every iteration.
func TestVerifierFastAcceptZeroAllocs(t *testing.T) {
	v, fr := fastRig(t)
	req, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	var resp AttResp
	if !fr.RespondInto(req, &resp) {
		t.Fatal("clean responder fell back to the full MAC")
	}
	p := v.pending[req.Nonce]
	assertZeroAllocs(t, "CheckDecodedResponse fast accept", func() {
		v.pending[req.Nonce] = p // re-arm the retired nonce: same slot, no growth
		if ok, err := v.CheckDecodedResponse(&resp); !ok || err != nil {
			t.Fatalf("fast accept failed: ok=%v err=%v", ok, err)
		}
	})
}
