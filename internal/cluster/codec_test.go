package cluster

import (
	"testing"

	"proverattest/internal/protocol"
)

func sampleSnapshot() Snapshot {
	var snap Snapshot
	snap.State.Counter = 12345
	snap.State.NonceSeq = 67890
	snap.State.FastEpoch = 7
	snap.State.HaveFast = true
	for i := range snap.State.FastDigest {
		snap.State.FastDigest[i] = byte(i * 3)
	}
	snap.StatsEpochs = 2
	snap.StatsBase = protocol.StatsReport{Received: 100, Measurements: 40, AuthRejected: 9}
	snap.LastStats = protocol.StatsReport{Received: 17, FastResponses: 5, ActiveCycles: 1 << 40}
	snap.HaveLast = true
	return snap
}

func TestRedirectRoundTrip(t *testing.T) {
	frame := EncodeRedirect("attestd-2", "10.0.0.2:7944")
	owner, addr, ok := DecodeRedirect(frame)
	if !ok || owner != "attestd-2" || addr != "10.0.0.2:7944" {
		t.Fatalf("redirect round trip = (%q, %q, %v)", owner, addr, ok)
	}
	// Attestation frames must never parse as redirects, and vice versa:
	// the magic spaces are disjoint.
	if _, _, ok := DecodeRedirect([]byte{0x41, 0x52, 1, 0, 0}); ok {
		t.Error("an AttReq-magic frame decoded as a redirect")
	}
	if protocol.ClassifyFrame(frame) != protocol.FrameUnknown {
		t.Error("redirect frame classified as an attestation frame kind")
	}
}

func TestPeerHelloRoundTrip(t *testing.T) {
	frame := EncodePeerHello("attestd-0")
	if !IsPeerHello(frame) {
		t.Fatal("IsPeerHello rejected an encoded peer hello")
	}
	name, err := DecodePeerHello(frame)
	if err != nil || name != "attestd-0" {
		t.Fatalf("peer hello round trip = (%q, %v)", name, err)
	}
	if IsPeerHello([]byte{0x41, 0x48, 1}) {
		t.Error("a device-hello frame passed IsPeerHello")
	}
	if _, err := DecodePeerHello(EncodePeerHello("")); err == nil {
		t.Error("empty peer name decoded without error")
	}
}

func TestStateReqRoundTrip(t *testing.T) {
	frame := EncodeStateReq("dev-42")
	id, err := DecodeStateReq(frame)
	if err != nil || id != "dev-42" {
		t.Fatalf("state req round trip = (%q, %v)", id, err)
	}
}

func TestStateRespRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	frame := EncodeStateResp("dev-42", &snap)
	id, got, err := DecodeStateResp(frame)
	if err != nil || id != "dev-42" || got == nil {
		t.Fatalf("state resp round trip = (%q, %v, %v)", id, got, err)
	}
	if *got != snap {
		t.Fatalf("snapshot round trip mismatch:\n got %+v\nwant %+v", *got, snap)
	}

	// Negative reply: found flag off, no body.
	id, got, err = DecodeStateResp(EncodeStateResp("dev-43", nil))
	if err != nil || id != "dev-43" || got != nil {
		t.Fatalf("negative state resp = (%q, %v, %v)", id, got, err)
	}
}

func TestStatePushRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	frame := EncodeStatePush("dev-7", &snap)
	id, got, err := DecodeStatePush(frame)
	if err != nil || id != "dev-7" {
		t.Fatalf("state push round trip = (%q, %v)", id, err)
	}
	if got != snap {
		t.Fatalf("pushed snapshot mismatch:\n got %+v\nwant %+v", got, snap)
	}
}

func TestClassifyPeer(t *testing.T) {
	cases := []struct {
		frame []byte
		want  PeerKind
	}{
		{EncodePeerHello("n"), PeerHello},
		{EncodeStateReq("d"), PeerStateReq},
		{EncodeStateResp("d", nil), PeerStateResp},
		{EncodePing(), PeerPing},
		{EncodePong(), PeerPong},
		{[]byte{0x41, 0x52, 1}, PeerUnknown}, // AttReq magic
		{[]byte{0x41, 0x4B, 9}, PeerUnknown}, // wrong version
		{[]byte{0x42, 0x4B, 1}, PeerUnknown}, // wrong leading magic
		{nil, PeerUnknown},
		{[]byte{0x41}, PeerUnknown},
	}
	snap := sampleSnapshot()
	cases = append(cases, struct {
		frame []byte
		want  PeerKind
	}{EncodeStatePush("d", &snap), PeerStatePush})
	for i, tc := range cases {
		if got := ClassifyPeer(tc.frame); got != tc.want {
			t.Errorf("case %d: ClassifyPeer = %v, want %v", i, got, tc.want)
		}
	}
}

// TestDecodeTruncated drives every decoder over every prefix of a valid
// frame: truncation must produce an error (or ok=false), never a panic or
// a silently wrong value.
func TestDecodeTruncated(t *testing.T) {
	snap := sampleSnapshot()
	frames := map[string][]byte{
		"redirect":  EncodeRedirect("n", "a:1"),
		"hello":     EncodePeerHello("n"),
		"stateReq":  EncodeStateReq("d"),
		"stateResp": EncodeStateResp("d", &snap),
		"statePush": EncodeStatePush("d", &snap),
	}
	for name, frame := range frames {
		for cut := 0; cut < len(frame); cut++ {
			short := frame[:cut]
			switch name {
			case "redirect":
				if _, _, ok := DecodeRedirect(short); ok {
					t.Fatalf("%s truncated at %d decoded ok", name, cut)
				}
			case "hello":
				if _, err := DecodePeerHello(short); err == nil {
					t.Fatalf("%s truncated at %d decoded without error", name, cut)
				}
			case "stateReq":
				if _, err := DecodeStateReq(short); err == nil {
					t.Fatalf("%s truncated at %d decoded without error", name, cut)
				}
			case "stateResp":
				if _, _, err := DecodeStateResp(short); err == nil {
					t.Fatalf("%s truncated at %d decoded without error", name, cut)
				}
			case "statePush":
				if _, _, err := DecodeStatePush(short); err == nil {
					t.Fatalf("%s truncated at %d decoded without error", name, cut)
				}
			}
		}
	}
}

func TestJumpForReplica(t *testing.T) {
	snap := sampleSnapshot()
	jumped := snap.JumpForReplica()
	if jumped.State.Counter != snap.State.Counter+FreshnessSlack {
		t.Errorf("counter = %d, want %d", jumped.State.Counter, snap.State.Counter+FreshnessSlack)
	}
	if jumped.State.NonceSeq != snap.State.NonceSeq+FreshnessSlack {
		t.Errorf("nonceSeq = %d, want %d", jumped.State.NonceSeq, snap.State.NonceSeq+FreshnessSlack)
	}
	if jumped.State.HaveFast || jumped.State.FastEpoch != 0 {
		t.Error("replica import kept a possibly-stale fast record")
	}
	if jumped.StatsBase != snap.StatsBase || jumped.LastStats != snap.LastStats || !jumped.HaveLast {
		t.Error("stats state must survive the jump untouched")
	}
	// The original is untouched (value semantics).
	if !snap.State.HaveFast {
		t.Error("JumpForReplica mutated its receiver")
	}
}
