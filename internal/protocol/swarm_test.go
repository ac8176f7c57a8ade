package protocol

import (
	"bytes"
	"crypto/sha1"
	"testing"
)

func TestSwarmReqRoundTrip(t *testing.T) {
	req := &SwarmReq{OwnOnly: true, Root: 42, Nonce: 7, TreeID: 99}
	req.Sign(NewMAC([]byte("swarm-key")))
	wire := req.Encode()

	got, err := DecodeSwarmReq(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.OwnOnly != req.OwnOnly || got.Root != req.Root || got.Nonce != req.Nonce || got.TreeID != req.TreeID {
		t.Fatalf("fields mismatch: got %+v want %+v", got, req)
	}
	if !bytes.Equal(got.Tag, req.Tag) {
		t.Fatalf("tag mismatch")
	}
	if !bytes.Equal(got.Encode(), wire) {
		t.Fatalf("re-encode differs")
	}

	var into SwarmReq
	if err := DecodeSwarmReqInto(wire, &into); err != nil {
		t.Fatalf("decode-into: %v", err)
	}
	if !bytes.Equal(into.Encode(), wire) {
		t.Fatalf("decode-into re-encode differs")
	}
}

func TestSwarmReqSignedBytesExcludeTag(t *testing.T) {
	req := &SwarmReq{Root: 3, Nonce: 1, TreeID: 2}
	signed := req.SignedBytes()
	req.Sign(NewMAC([]byte("k")))
	if !bytes.Equal(signed, req.SignedBytes()) {
		t.Fatalf("signing changed the signed bytes")
	}
	if !bytes.Equal(signed, req.AppendSignedBytes(nil)) {
		t.Fatalf("AppendSignedBytes differs from SignedBytes")
	}
	// Root and OwnOnly sit inside the MAC: flipping either must change
	// the signed image.
	other := &SwarmReq{Root: 4, Nonce: 1, TreeID: 2}
	if bytes.Equal(signed, other.SignedBytes()) {
		t.Fatalf("root not covered by signed bytes")
	}
	probe := &SwarmReq{OwnOnly: true, Root: 3, Nonce: 1, TreeID: 2}
	if bytes.Equal(signed, probe.SignedBytes()) {
		t.Fatalf("own-only flag not covered by signed bytes")
	}
}

func TestSwarmReqDecodeRejects(t *testing.T) {
	good := (&SwarmReq{Root: 1, Nonce: 2, TreeID: 3}).Encode()
	var r SwarmReq
	cases := map[string][]byte{
		"short":         good[:10],
		"magic":         append([]byte{0x00}, good[1:]...),
		"version":       mutateAt(good, 2, 0x7F),
		"reserved-flag": mutateAt(good, 3, 0x80),
		"reserved-byte": mutateAt(good, 6, 0x01),
		"taglen":        mutateAt(good, 24, 0xFF),
	}
	for name, buf := range cases {
		if err := DecodeSwarmReqInto(buf, &r); err == nil {
			t.Errorf("%s: accepted malformed request", name)
		}
		if _, err := DecodeSwarmReq(buf); err == nil {
			t.Errorf("%s: DecodeSwarmReq accepted malformed request", name)
		}
	}
}

func TestSwarmRespRoundTrip(t *testing.T) {
	resp := &SwarmResp{Depth: 3, Root: 9, Nonce: 77}
	for i := range resp.Aggregate {
		resp.Aggregate[i] = byte(i * 7)
	}
	resp.Bitmap = make([]byte, SwarmBitmapLen(64))
	SetSwarmBit(resp.Bitmap, 0)
	SetSwarmBit(resp.Bitmap, 63)
	wire := resp.Encode()

	got, err := DecodeSwarmResp(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Depth != resp.Depth || got.Root != resp.Root || got.Nonce != resp.Nonce {
		t.Fatalf("fields mismatch: got %+v want %+v", got, resp)
	}
	if got.Aggregate != resp.Aggregate || !bytes.Equal(got.Bitmap, resp.Bitmap) {
		t.Fatalf("payload mismatch")
	}
	if !SwarmBit(got.Bitmap, 0) || !SwarmBit(got.Bitmap, 63) || SwarmBit(got.Bitmap, 5) {
		t.Fatalf("bitmap bits wrong")
	}
	if SwarmBit(got.Bitmap, 1000) {
		t.Fatalf("out-of-range bit reads as set")
	}
	if !bytes.Equal(got.Encode(), wire) {
		t.Fatalf("re-encode differs")
	}

	var into SwarmResp
	into.Bitmap = make([]byte, 0, 64)
	if err := DecodeSwarmRespInto(wire, &into); err != nil {
		t.Fatalf("decode-into: %v", err)
	}
	if !bytes.Equal(into.Encode(), wire) {
		t.Fatalf("decode-into re-encode differs")
	}
}

func TestSwarmRespDecodeRejects(t *testing.T) {
	good := (&SwarmResp{Depth: 1, Root: 2, Nonce: 3, Bitmap: []byte{0xFF}}).Encode()
	var r SwarmResp
	cases := map[string][]byte{
		"short":  good[:8],
		"magic":  mutateAt(good, 1, 0x00),
		"ver":    mutateAt(good, 2, 0x09),
		"bmlen":  mutateAt(good, 6, 0x40),
		"padded": append(append([]byte(nil), good...), 0x00),
	}
	for name, buf := range cases {
		if err := DecodeSwarmRespInto(buf, &r); err == nil {
			t.Errorf("%s: accepted malformed response", name)
		}
		if _, err := DecodeSwarmResp(buf); err == nil {
			t.Errorf("%s: DecodeSwarmResp accepted malformed response", name)
		}
	}
}

func mutateAt(buf []byte, i int, v byte) []byte {
	out := append([]byte(nil), buf...)
	out[i] = v
	return out
}

func TestClassifySwarmFrames(t *testing.T) {
	req := (&SwarmReq{Root: 1}).Encode()
	resp := (&SwarmResp{Root: 1}).Encode()
	if k := ClassifyFrame(req); k != FrameSwarmReq {
		t.Fatalf("swarm request classified as %v", k)
	}
	if k := ClassifyFrame(resp); k != FrameSwarmResp {
		t.Fatalf("swarm response classified as %v", k)
	}
}

// TestSwarmTagDerivation pins the three-layer derivation: fast (stored
// digest) and full (fresh measurement) own tags agree on identical
// memory, differ across members, epochs, requests and content, and the
// fold is order-sensitive and keyed.
func TestSwarmTagDerivation(t *testing.T) {
	keyA := []byte("device-key-a")
	keyB := []byte("device-key-b")
	mem := bytes.Repeat([]byte{0x5A}, 256)
	req := &SwarmReq{Root: 0, Nonce: 1, TreeID: 1}
	signed := req.SignedBytes()

	digA := SwarmMemDigest(keyA, mem)
	macA := NewMAC(keyA)
	var digA2 [sha1.Size]byte
	SwarmMemDigestInto(macA, mem, &digA2)
	if digA != digA2 {
		t.Fatalf("SwarmMemDigest and SwarmMemDigestInto disagree")
	}
	if digA == SwarmMemDigest(keyB, mem) {
		t.Fatalf("mem digest not keyed per device")
	}

	var own1, own2 [sha1.Size]byte
	SwarmOwnTagInto(macA, signed, 0, 1, &digA, &own1)
	SwarmOwnTagInto(macA, signed, 0, 1, &digA, &own2)
	if own1 != own2 {
		t.Fatalf("own tag not deterministic")
	}
	SwarmOwnTagInto(macA, signed, 1, 1, &digA, &own2)
	if own1 == own2 {
		t.Fatalf("own tag ignores member index")
	}
	SwarmOwnTagInto(macA, signed, 0, 2, &digA, &own2)
	if own1 == own2 {
		t.Fatalf("own tag ignores epoch")
	}
	other := &SwarmReq{Root: 0, Nonce: 2, TreeID: 1}
	SwarmOwnTagInto(macA, other.SignedBytes(), 0, 1, &digA, &own2)
	if own1 == own2 {
		t.Fatalf("own tag ignores the signed request")
	}

	var childX, childY [sha1.Size]byte
	childX[0], childY[0] = 1, 2
	var fold1, fold2 [sha1.Size]byte
	SwarmFoldStart(macA, &own1)
	SwarmFoldChild(macA, &childX)
	SwarmFoldChild(macA, &childY)
	SwarmFoldFinish(macA, &fold1)

	SwarmFoldStart(macA, &own1)
	SwarmFoldChild(macA, &childY)
	SwarmFoldChild(macA, &childX)
	SwarmFoldFinish(macA, &fold2)
	if fold1 == fold2 {
		t.Fatalf("fold ignores child order")
	}

	macB := NewMAC(keyB)
	SwarmFoldStart(macB, &own1)
	SwarmFoldChild(macB, &childX)
	SwarmFoldChild(macB, &childY)
	SwarmFoldFinish(macB, &fold2)
	if fold1 == fold2 {
		t.Fatalf("fold not keyed per device")
	}
}

func TestDeriveSwarmKey(t *testing.T) {
	a := DeriveSwarmKey([]byte("master-a"))
	b := DeriveSwarmKey([]byte("master-b"))
	if a == b {
		t.Fatalf("swarm key ignores the master secret")
	}
	dev := DeriveDeviceKey([]byte("master-a"), "K_Swarm")
	if a == dev {
		t.Fatalf("swarm key collides with the device-key derivation domain")
	}
}
