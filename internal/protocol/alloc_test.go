package protocol

import (
	"crypto/hmac"
	"crypto/sha1"
	"testing"
)

// These tests lock in the zero-allocation contract of the append-style
// encoders and the decode-into path: the serving hot path (attestd and the
// load generator) runs these per frame, so a regression here is a GC-
// pressure regression under fleet traffic.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm up: first call may grow the scratch buffer
	if n := testing.AllocsPerRun(1000, fn); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestAppendEncodeZeroAllocs(t *testing.T) {
	req := &AttReq{
		Freshness: FreshCounter,
		Auth:      AuthHMACSHA1,
		Nonce:     7,
		Counter:   9,
		Tag:       make([]byte, 20),
	}
	resp := &AttResp{Nonce: 7, Counter: 9}
	cmd := &CommandReq{
		Kind:      CmdSecureErase,
		Freshness: FreshCounter,
		Auth:      AuthHMACSHA1,
		Nonce:     11,
		Counter:   13,
		Body:      make([]byte, 64),
		Tag:       make([]byte, 20),
	}
	cmdResp := &CommandResp{Kind: CmdSecureErase, Nonce: 11, Body: make([]byte, 8), Tag: make([]byte, 20)}
	hello := &Hello{Freshness: FreshCounter, Auth: AuthHMACSHA1, DeviceID: "alloc-dev"}
	stats := &StatsReport{Received: 1, Measurements: 2}
	swarmReq := &SwarmReq{Root: 3, Nonce: 4, TreeID: 5, Tag: make([]byte, 20)}
	swarmResp := &SwarmResp{Depth: 1, Root: 3, Nonce: 4, Bitmap: make([]byte, 8)}

	buf := make([]byte, 0, 512)
	assertZeroAllocs(t, "AttReq.AppendEncode", func() { buf = req.AppendEncode(buf[:0]) })
	assertZeroAllocs(t, "AttResp.AppendEncode", func() { buf = resp.AppendEncode(buf[:0]) })
	assertZeroAllocs(t, "CommandReq.AppendEncode", func() { buf = cmd.AppendEncode(buf[:0]) })
	assertZeroAllocs(t, "CommandResp.AppendEncode", func() { buf = cmdResp.AppendEncode(buf[:0]) })
	assertZeroAllocs(t, "Hello.AppendEncode", func() { buf = hello.AppendEncode(buf[:0]) })
	assertZeroAllocs(t, "StatsReport.AppendEncode", func() { buf = stats.AppendEncode(buf[:0]) })
	assertZeroAllocs(t, "SwarmReq.AppendEncode", func() { buf = swarmReq.AppendEncode(buf[:0]) })
	assertZeroAllocs(t, "SwarmResp.AppendEncode", func() { buf = swarmResp.AppendEncode(buf[:0]) })
}

// TestAppendEncodeMatchesEncode pins AppendEncode and Encode to identical
// wire images, including when appending after existing bytes.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	req := &AttReq{Freshness: FreshCounter, Auth: AuthHMACSHA1, Nonce: 1, Counter: 2, Tag: []byte{9, 8, 7}}
	resp := &AttResp{Nonce: 3, Counter: 4}
	cmd := &CommandReq{Kind: CmdClockSync, Freshness: FreshCounter, Auth: AuthHMACSHA1, Nonce: 5, Body: []byte("b"), Tag: []byte("t")}
	cmdResp := &CommandResp{Kind: CmdClockSync, Status: StatusOK, Nonce: 6, Body: []byte("r"), Tag: []byte("g")}
	hello := &Hello{Freshness: FreshCounter, Auth: AuthHMACSHA1, DeviceID: "dev"}
	stats := &StatsReport{Received: 42, FramesIn: 43}
	swarmReq := &SwarmReq{OwnOnly: true, Root: 7, Nonce: 8, TreeID: 9, Tag: []byte{1, 2, 3}}
	swarmResp := &SwarmResp{Depth: 2, Root: 7, Nonce: 8, Bitmap: []byte{0x81}}

	cases := []struct {
		name   string
		append func(dst []byte) []byte
		encode func() []byte
	}{
		{"AttReq", req.AppendEncode, req.Encode},
		{"AttResp", resp.AppendEncode, resp.Encode},
		{"CommandReq", cmd.AppendEncode, cmd.Encode},
		{"CommandResp", cmdResp.AppendEncode, cmdResp.Encode},
		{"Hello", hello.AppendEncode, hello.Encode},
		{"StatsReport", stats.AppendEncode, stats.Encode},
		{"SwarmReq", swarmReq.AppendEncode, swarmReq.Encode},
		{"SwarmResp", swarmResp.AppendEncode, swarmResp.Encode},
	}
	for _, tc := range cases {
		prefix := []byte{0xEE, 0xFF}
		got := tc.append(append([]byte(nil), prefix...))
		want := append(append([]byte(nil), prefix...), tc.encode()...)
		if string(got) != string(want) {
			t.Errorf("%s: AppendEncode image differs from Encode", tc.name)
		}
	}
}

func TestDecodeAttRespIntoZeroAllocs(t *testing.T) {
	frame := (&AttResp{Nonce: 21, Counter: 22}).Encode()
	var resp AttResp
	assertZeroAllocs(t, "DecodeAttRespInto", func() {
		if err := DecodeAttRespInto(frame, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if resp.Nonce != 21 || resp.Counter != 22 {
		t.Fatalf("decoded resp = %+v", resp)
	}

	// The reject branches are hostile-controlled; they must not allocate
	// either (static errors).
	bad := append([]byte(nil), frame...)
	bad[0] = 0xFF
	assertZeroAllocs(t, "DecodeAttRespInto reject", func() {
		if err := DecodeAttRespInto(bad, &resp); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
}

// TestDecodeSwarmIntoZeroAllocs pins the swarm frames' decode-into paths
// (and their hostile-controlled reject branches) at 0 allocs/frame: the
// per-hop gate and the daemon's aggregate routing run these per frame.
func TestDecodeSwarmIntoZeroAllocs(t *testing.T) {
	reqFrame := (&SwarmReq{Root: 5, Nonce: 6, TreeID: 7, Tag: make([]byte, 20)}).Encode()
	respFrame := (&SwarmResp{Depth: 1, Root: 5, Nonce: 6, Bitmap: make([]byte, 32)}).Encode()

	req := &SwarmReq{Tag: make([]byte, 0, 64)}
	resp := &SwarmResp{Bitmap: make([]byte, 0, 64)}
	assertZeroAllocs(t, "DecodeSwarmReqInto", func() {
		if err := DecodeSwarmReqInto(reqFrame, req); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "DecodeSwarmRespInto", func() {
		if err := DecodeSwarmRespInto(respFrame, resp); err != nil {
			t.Fatal(err)
		}
	})

	badReq := append([]byte(nil), reqFrame...)
	badReq[1] = 0xFF
	badResp := append([]byte(nil), respFrame...)
	badResp[6] = 0xFF // bitmap-length mismatch
	assertZeroAllocs(t, "DecodeSwarmReqInto reject", func() {
		if err := DecodeSwarmReqInto(badReq, req); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	assertZeroAllocs(t, "DecodeSwarmRespInto reject", func() {
		if err := DecodeSwarmRespInto(badResp, resp); err == nil {
			t.Fatal("bad bitmap length accepted")
		}
	})
}

// TestSwarmFoldZeroAllocs pins a member's per-hop swarm round on the
// primitives the anchor runs it with — gate tag check, own tag over the
// stored memory digest, two child folds, finish — at zero allocations:
// the fold models firmware that has no allocator at all.
func TestSwarmFoldZeroAllocs(t *testing.T) {
	swarmKey := DeriveSwarmKey([]byte("alloc-master"))
	gate := NewMAC(swarmKey[:])
	mac := NewMAC([]byte("0123456789abcdef0123"))
	var digest, own, child, agg [sha1.Size]byte
	SwarmMemDigestInto(mac, make([]byte, 4096), &digest)
	for i := range child {
		child[i] = byte(i)
	}
	req := &SwarmReq{Root: 0, Nonce: 1, TreeID: 7}
	req.Sign(gate)
	signed := make([]byte, 0, 32)
	assertZeroAllocs(t, "swarm per-hop round", func() {
		signed = req.AppendSignedBytes(signed[:0])
		if !hmac.Equal(gate.Tag(signed)[:], req.Tag) {
			t.Fatal("gate tag rejected")
		}
		SwarmOwnTagInto(mac, signed, 0, 1, &digest, &own)
		SwarmFoldStart(mac, &own)
		SwarmFoldChild(mac, &child)
		SwarmFoldChild(mac, &child)
		SwarmFoldFinish(mac, &agg)
	})
}

// TestCheckDecodedResponseUnsolicitedZeroAllocs covers the verifier-side
// gate: a response to no outstanding nonce must be refused without
// allocating, since an impersonator can emit those at line rate.
func TestCheckDecodedResponseUnsolicitedZeroAllocs(t *testing.T) {
	key := []byte("0123456789abcdef0123")
	v, err := NewVerifier(VerifierConfig{
		Freshness: FreshCounter,
		Auth:      NewHMACAuth(key),
		AttestKey: key,
		Golden:    []byte("golden"),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := &AttResp{Nonce: 999}
	assertZeroAllocs(t, "CheckDecodedResponse unsolicited", func() {
		if ok, err := v.CheckDecodedResponse(resp); ok || err != ErrUnsolicited {
			t.Fatalf("ok=%v err=%v, want unsolicited reject", ok, err)
		}
	})
}

// TestHeldMACZeroAllocs pins the verifier's per-round MAC work on its
// held keys: the expected full measurement costs nothing but the hash,
// and a request tag costs only the tag it returns.
func TestHeldMACZeroAllocs(t *testing.T) {
	key := []byte("0123456789abcdef0123")
	v, err := NewVerifier(VerifierConfig{
		Freshness: FreshCounter,
		Auth:      NewHMACAuth(key),
		AttestKey: key,
		Golden:    make([]byte, 4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	req := &AttReq{Freshness: FreshCounter, Auth: AuthHMACSHA1, Nonce: 3, Counter: 4}
	assertZeroAllocs(t, "Verifier.ExpectedMeasurement", func() { v.ExpectedMeasurement(req) })
	if got, want := v.ExpectedMeasurement(req), Measure(key, req, make([]byte, 4096)); got != want {
		t.Fatalf("held measurement %x, one-shot %x", got, want)
	}

	auth := NewHMACAuth(key)
	signed := req.SignedBytes()
	var tag []byte
	sign := func() { tag, _ = auth.Sign(signed) }
	sign()
	if n := testing.AllocsPerRun(1000, sign); n > 1 {
		t.Errorf("HMACAuth.Sign: %v allocs/op, want <= 1 (the returned tag)", n)
	}
	assertZeroAllocs(t, "HMACAuth.Verify", func() {
		if ok, _ := auth.Verify(signed, tag); !ok {
			t.Fatal("own tag refused")
		}
	})
}
