package protocol

import (
	"bytes"
	"testing"
)

func testVerifier(t *testing.T, fresh FreshnessKind) *Verifier {
	t.Helper()
	clock := uint64(0)
	v, err := NewVerifier(VerifierConfig{
		Freshness: fresh,
		Auth:      NewHMACAuth([]byte("request-auth-key")),
		AttestKey: []byte("k-attest-20-bytes!!!"),
		Golden:    bytes.Repeat([]byte{0x5A}, 1024),
		Clock:     func() uint64 { clock += 100; return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVerifierConfigValidation(t *testing.T) {
	if _, err := NewVerifier(VerifierConfig{AttestKey: []byte("k")}); err == nil {
		t.Error("verifier built without an authenticator")
	}
	if _, err := NewVerifier(VerifierConfig{Auth: NoAuth{}}); err == nil {
		t.Error("verifier built without K_Attest")
	}
	if _, err := NewVerifier(VerifierConfig{
		Auth: NoAuth{}, AttestKey: []byte("k"), Freshness: FreshTimestamp,
	}); err == nil {
		t.Error("timestamp verifier built without a clock")
	}
}

func TestNewRequestCounterMonotone(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	r1, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Counter != r1.Counter+1 {
		t.Fatalf("counters %d, %d — want strictly increasing by 1", r1.Counter, r2.Counter)
	}
	if r1.Nonce == r2.Nonce {
		t.Fatal("nonces repeat")
	}
	if v.Issued != 2 {
		t.Fatalf("Issued = %d, want 2", v.Issued)
	}
}

func TestNewRequestTimestampUsesClock(t *testing.T) {
	v := testVerifier(t, FreshTimestamp)
	r1, _ := v.NewRequest()
	r2, _ := v.NewRequest()
	if r2.Timestamp <= r1.Timestamp {
		t.Fatalf("timestamps %d, %d — want advancing clock", r1.Timestamp, r2.Timestamp)
	}
}

func TestRequestsAreAuthenticated(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, _ := v.NewRequest()
	auth := NewHMACAuth([]byte("request-auth-key"))
	if ok, _ := auth.Verify(req.SignedBytes(), req.Tag); !ok {
		t.Fatal("issued request's tag does not verify")
	}
}

func TestCheckResponseHappyPath(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, _ := v.NewRequest()
	// A well-behaved prover with the golden memory produces this:
	meas := Measure([]byte("k-attest-20-bytes!!!"), req, bytes.Repeat([]byte{0x5A}, 1024))
	resp := &AttResp{Nonce: req.Nonce, Counter: req.Counter, Measurement: meas}
	ok, err := v.CheckResponse(resp.Encode())
	if !ok || err != nil {
		t.Fatalf("CheckResponse = %v, %v", ok, err)
	}
	if v.Accepted != 1 || v.Outstanding() != 0 {
		t.Fatalf("Accepted=%d Outstanding=%d", v.Accepted, v.Outstanding())
	}
}

func TestCheckResponseRejectsWrongMemory(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, _ := v.NewRequest()
	tampered := bytes.Repeat([]byte{0x5A}, 1024)
	tampered[100] ^= 0xFF
	meas := Measure([]byte("k-attest-20-bytes!!!"), req, tampered)
	resp := &AttResp{Nonce: req.Nonce, Measurement: meas}
	if ok, _ := v.CheckResponse(resp.Encode()); ok {
		t.Fatal("measurement over deviating memory accepted")
	}
	if v.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", v.Rejected)
	}
	// The request stays outstanding — a failed response does not retire it.
	if v.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1", v.Outstanding())
	}
}

func TestCheckResponseRejectsWrongKey(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, _ := v.NewRequest()
	meas := Measure([]byte("wrong-key-wrong-key!"), req, bytes.Repeat([]byte{0x5A}, 1024))
	resp := &AttResp{Nonce: req.Nonce, Measurement: meas}
	if ok, _ := v.CheckResponse(resp.Encode()); ok {
		t.Fatal("measurement under wrong key accepted")
	}
}

func TestCheckResponseUnsolicited(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	resp := &AttResp{Nonce: 999}
	if ok, _ := v.CheckResponse(resp.Encode()); ok {
		t.Fatal("unsolicited response accepted")
	}
	if v.Unsolicited != 1 {
		t.Fatalf("Unsolicited = %d, want 1", v.Unsolicited)
	}
}

func TestCheckResponseGarbage(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	if ok, err := v.CheckResponse([]byte("not a response")); ok || err == nil {
		t.Fatal("garbage response accepted")
	}
}

func TestCheckResponseReplayedResponse(t *testing.T) {
	// A response can only retire its request once; replaying it is
	// unsolicited the second time.
	v := testVerifier(t, FreshCounter)
	req, _ := v.NewRequest()
	meas := Measure([]byte("k-attest-20-bytes!!!"), req, bytes.Repeat([]byte{0x5A}, 1024))
	raw := (&AttResp{Nonce: req.Nonce, Counter: req.Counter, Measurement: meas}).Encode()
	if ok, _ := v.CheckResponse(raw); !ok {
		t.Fatal("first response rejected")
	}
	if ok, _ := v.CheckResponse(raw); ok {
		t.Fatal("replayed response accepted")
	}
}

func TestMeasureBindsRequest(t *testing.T) {
	key := []byte("k")
	mem := []byte("memory")
	r1 := &AttReq{Nonce: 1}
	r2 := &AttReq{Nonce: 2}
	if Measure(key, r1, mem) == Measure(key, r2, mem) {
		t.Fatal("measurement does not bind the request — responses would be replayable")
	}
	if Measure(key, r1, mem) == Measure(key, r1, []byte("other!")) {
		t.Fatal("measurement does not bind the memory")
	}
}

func TestOutstandingCountsBothMaps(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, err := v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	cmd, err := v.NewCommand(CmdSecureErase, []byte("region"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d, want 2 (one request + one command)", v.Outstanding())
	}
	if req.Nonce == cmd.Nonce {
		t.Fatal("request and command drew the same nonce — the maps could shadow each other")
	}
	if !v.IsPending(req.Nonce) || v.IsPending(cmd.Nonce) {
		t.Fatalf("IsPending: req=%v cmd=%v, want true/false (attestation map only)",
			v.IsPending(req.Nonce), v.IsPending(cmd.Nonce))
	}
	if !v.IsCommandPending(cmd.Nonce) || v.IsCommandPending(req.Nonce) {
		t.Fatalf("IsCommandPending: cmd=%v req=%v, want true/false (command map only)",
			v.IsCommandPending(cmd.Nonce), v.IsCommandPending(req.Nonce))
	}
}

func TestAbandonTouchesOnlyAttestationMap(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, _ := v.NewRequest()
	cmd, _ := v.NewCommand(CmdClockSync, nil)

	if v.Abandon(cmd.Nonce) {
		t.Fatal("Abandon retired a command nonce — the maps must be independent")
	}
	if !v.Abandon(req.Nonce) {
		t.Fatal("Abandon refused a pending attestation nonce")
	}
	if v.Abandon(req.Nonce) {
		t.Fatal("Abandon retired the same nonce twice")
	}
	if v.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1 (the command survives)", v.Outstanding())
	}
	if v.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", v.Expired)
	}
}

func TestAbandonCommandTouchesOnlyCommandMap(t *testing.T) {
	v := testVerifier(t, FreshCounter)
	req, _ := v.NewRequest()
	cmd, _ := v.NewCommand(CmdSecureUpdate, []byte("img"))

	if v.AbandonCommand(req.Nonce) {
		t.Fatal("AbandonCommand retired an attestation nonce")
	}
	if !v.AbandonCommand(cmd.Nonce) {
		t.Fatal("AbandonCommand refused a pending command nonce")
	}
	if v.AbandonCommand(cmd.Nonce) {
		t.Fatal("AbandonCommand retired the same nonce twice")
	}
	if v.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1 (the attestation request survives)", v.Outstanding())
	}
	if v.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", v.Expired)
	}
	// A late response to the abandoned command is unsolicited, not accepted.
	resp := &CommandResp{Kind: CmdSecureUpdate, Status: StatusOK, Nonce: cmd.Nonce}
	resp.Seal([]byte("k-attest-20-bytes!!!"))
	if _, err := v.CheckCommandResponse(resp.Encode()); err == nil {
		t.Fatal("response to an abandoned command accepted")
	}
	if v.Unsolicited != 1 {
		t.Fatalf("Unsolicited = %d, want 1", v.Unsolicited)
	}
}

func TestAbandonedCommandAllowsRetry(t *testing.T) {
	// The retry discipline for commands mirrors attestation: abandon, then
	// issue a *new* command (fresh nonce/counter) rather than re-sending.
	v := testVerifier(t, FreshCounter)
	cmd1, _ := v.NewCommand(CmdSecureErase, []byte("r"))
	v.AbandonCommand(cmd1.Nonce)
	cmd2, err := v.NewCommand(CmdSecureErase, []byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd2.Nonce == cmd1.Nonce || cmd2.Counter <= cmd1.Counter {
		t.Fatalf("retry reused nonce/counter: %d/%d after %d/%d",
			cmd2.Nonce, cmd2.Counter, cmd1.Nonce, cmd1.Counter)
	}
	resp := &CommandResp{Kind: CmdSecureErase, Status: StatusOK, Nonce: cmd2.Nonce}
	resp.Seal([]byte("k-attest-20-bytes!!!"))
	if _, err := v.CheckCommandResponse(resp.Encode()); err != nil {
		t.Fatalf("retried command's response rejected: %v", err)
	}
	if v.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d, want 0", v.Outstanding())
	}
}

// fastVerifier builds a fast-path-capable verifier for the handoff tests.
func fastVerifier(t *testing.T) *Verifier {
	t.Helper()
	v, err := NewVerifier(VerifierConfig{
		Freshness:     FreshCounter,
		Auth:          NewHMACAuth([]byte("request-auth-key")),
		AttestKey:     []byte("k-attest-20-bytes!!!"),
		Golden:        bytes.Repeat([]byte{0x5A}, 1024),
		AllowFastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestExportImportContinuesStream is the state-handoff round trip: a
// verifier that ran rounds exports, a fresh one imports, and the device
// sees one uninterrupted counter stream — including the fast-path arm
// record, so the importing daemon's first request can already grant the
// O(1) response.
func TestExportImportContinuesStream(t *testing.T) {
	golden := bytes.Repeat([]byte{0x5A}, 1024)
	key := []byte("k-attest-20-bytes!!!")

	v1 := fastVerifier(t)
	req1, _ := v1.NewRequest()
	if req1.AllowFast {
		t.Fatal("first request granted fast before any verified measurement")
	}
	meas := Measure(key, req1, golden)
	resp := &AttResp{Nonce: req1.Nonce, Counter: req1.Counter, Measurement: meas, Epoch: 7}
	if ok, err := v1.CheckResponse(resp.Encode()); !ok {
		t.Fatalf("full round rejected: %v", err)
	}
	if !v1.HasFastState() {
		t.Fatal("verified epoch-carrying measurement did not arm the fast state")
	}

	st := v1.ExportState()
	v2 := fastVerifier(t)
	v2.ImportState(st)

	req2, _ := v2.NewRequest()
	if req2.Counter != req1.Counter+1 {
		t.Errorf("imported verifier issued counter %d, want %d (stream continues)", req2.Counter, req1.Counter+1)
	}
	if req2.Nonce <= req1.Nonce {
		t.Errorf("imported verifier reused nonce space: %d after %d", req2.Nonce, req1.Nonce)
	}
	if !req2.AllowFast {
		t.Error("imported verifier lost the fast-path arm record")
	}
	// The device's stored digest is the last full measurement; the
	// imported record must accept exactly that fast response.
	fast := FastMAC(key, req2, 7, &meas)
	fresp := &AttResp{Fast: true, Epoch: 7, Nonce: req2.Nonce, Counter: req2.Counter, Measurement: fast}
	if ok, err := v2.CheckResponse(fresp.Encode()); !ok {
		t.Fatalf("fast response against the imported record rejected: %v", err)
	}
	if v2.FastAccepted != 1 {
		t.Fatalf("FastAccepted = %d, want 1", v2.FastAccepted)
	}
}

// TestImportDropsPendingAndGatesFast pins the import edge cases: a
// previous owner's outstanding nonces must not be answerable on the
// importer, and a verifier configured without the fast path never honours
// an imported arm record.
func TestImportDropsPendingAndGatesFast(t *testing.T) {
	golden := bytes.Repeat([]byte{0x5A}, 1024)
	key := []byte("k-attest-20-bytes!!!")

	v1 := fastVerifier(t)
	req, _ := v1.NewRequest() // outstanding at export time
	st := v1.ExportState()

	v2 := fastVerifier(t)
	v2.NewRequest() // own outstanding state, replaced by the import
	v2.ImportState(st)
	if v2.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after import, want 0", v2.Outstanding())
	}
	meas := Measure(key, req, golden)
	resp := &AttResp{Nonce: req.Nonce, Counter: req.Counter, Measurement: meas}
	if _, err := v2.CheckResponse(resp.Encode()); err == nil {
		t.Fatal("importer accepted a response to the previous owner's nonce")
	}

	// Arm fast on v1, then import into a full-MAC-only verifier.
	st2 := VerifierState{Counter: 50, NonceSeq: 60, FastEpoch: 3, HaveFast: true}
	plain := testVerifier(t, FreshCounter) // AllowFastPath false
	plain.ImportState(st2)
	if plain.HasFastState() {
		t.Error("full-MAC-only verifier honoured an imported fast record")
	}
	r, _ := plain.NewRequest()
	if r.Counter != 51 {
		t.Errorf("imported counter stream at %d, want 51", r.Counter)
	}
}

// TestStateTransferWithholdsStaleFastRecord replays the handoff that
// forgot the fast-permission rule: two full requests go out and the
// prover measures both, only the older answer is verified before the
// state is exported, and the newer answer is lost with the old owner.
// The prover now holds the newer digest, so the importer must demand a
// full MAC rather than grant fast permission against the older record,
// and the honest answers must be accepted without a reject.
func TestStateTransferWithholdsStaleFastRecord(t *testing.T) {
	v1, fr, key := fastPair(t)
	a, err := v1.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	b, err := v1.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	var respA, respB AttResp
	fr.RespondInto(a, &respA)
	fr.RespondInto(b, &respB) // lost with the old owner
	if ok, err := v1.CheckDecodedResponse(&respA); !ok {
		t.Fatalf("answer to A refused: %v", err)
	}
	st := v1.ExportState()
	if st.HaveFast {
		t.Fatal("export carries a fast record while a newer full request is outstanding")
	}

	v2, err := NewVerifier(VerifierConfig{
		Freshness:     FreshCounter,
		Auth:          NewHMACAuth(key),
		AttestKey:     key,
		Golden:        fr.golden,
		AllowFastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v2.ImportState(st)
	for round := 0; round < 2; round++ {
		req, err := v2.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 && req.AllowFast {
			t.Fatal("importer granted fast permission against a record the prover no longer holds")
		}
		var resp AttResp
		if fast := fr.RespondInto(req, &resp); fast != (round == 1) {
			t.Fatalf("round %d: fast=%v", round, fast)
		}
		if ok, err := v2.CheckDecodedResponse(&resp); !ok {
			t.Fatalf("round %d: honest answer refused: %v", round, err)
		}
	}
	if v2.Rejected != 0 {
		t.Fatalf("importer rejected %d honest answers", v2.Rejected)
	}
}
