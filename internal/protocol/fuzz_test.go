package protocol

import (
	"bytes"
	"testing"
)

// FuzzDecodeAttReq: the request decoder must never panic, and any frame it
// accepts must re-encode to the identical bytes (strict framing means the
// parse is a bijection on its accepted set).
func FuzzDecodeAttReq(f *testing.F) {
	f.Add((&AttReq{Freshness: FreshCounter, Auth: AuthHMACSHA1, Nonce: 1, Counter: 2,
		Tag: bytes.Repeat([]byte{0xAA}, 20)}).Encode())
	f.Add((&AttReq{}).Encode())
	f.Add([]byte{})
	f.Add([]byte{0x41, 0x52, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAttReq(data)
		if err != nil {
			return
		}
		if !bytes.Equal(req.Encode(), data) {
			t.Fatalf("accepted frame does not round trip: %x", data)
		}
	})
}

// FuzzDecodeAttResp mirrors the request fuzzer for responses.
func FuzzDecodeAttResp(f *testing.F) {
	f.Add((&AttResp{Nonce: 3, Counter: 4}).Encode())
	f.Add([]byte{0x41, 0x50})
	reserved := (&AttResp{Fast: true, Nonce: 5}).Encode()
	reserved[3] |= 0x80
	f.Add(reserved)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The nonce-only read the daemon's gate refuses by accepts exactly
		// what the full decode accepts, with the same nonce.
		var into AttResp
		err := DecodeAttRespInto(data, &into)
		nonce, nonceErr := AttRespNonce(data)
		if nonceErr != err || err == nil && nonce != into.Nonce {
			t.Fatalf("AttRespNonce = %#x, %v; DecodeAttRespInto: nonce %#x, %v", nonce, nonceErr, into.Nonce, err)
		}
		resp, err := DecodeAttResp(data)
		if err != nil {
			return
		}
		if !bytes.Equal(resp.Encode(), data) {
			t.Fatalf("accepted response does not round trip: %x", data)
		}
	})
}

// FuzzDecodeCommandReq covers the variable-length command envelope.
func FuzzDecodeCommandReq(f *testing.F) {
	f.Add((&CommandReq{Kind: CmdSecureUpdate, Body: []byte("body"),
		Tag: bytes.Repeat([]byte{1}, 20)}).Encode())
	f.Add((&CommandReq{}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeCommandReq(data)
		if err != nil {
			return
		}
		if !bytes.Equal(req.Encode(), data) {
			t.Fatalf("accepted command does not round trip: %x", data)
		}
	})
}

// FuzzDecodeCommandResp covers the sealed verdict envelope.
func FuzzDecodeCommandResp(f *testing.F) {
	seeded := &CommandResp{Kind: CmdSecureErase, Status: StatusOK, Nonce: 7, Body: []byte("x")}
	seeded.Seal([]byte("k"))
	f.Add(seeded.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeCommandResp(data)
		if err != nil {
			return
		}
		if !bytes.Equal(resp.Encode(), data) {
			t.Fatalf("accepted command response does not round trip: %x", data)
		}
	})
}

// FuzzDecodeHello covers the session opener of the networked deployment.
func FuzzDecodeHello(f *testing.F) {
	f.Add((&Hello{Freshness: FreshCounter, Auth: AuthHMACSHA1, DeviceID: "dev-1"}).Encode())
	f.Add((&Hello{DeviceID: "x"}).Encode())
	f.Add([]byte{0x41, 0x48, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		if !bytes.Equal(h.Encode(), data) {
			t.Fatalf("accepted hello does not round trip: %x", data)
		}
	})
}

// FuzzDecodeStatsReport covers the counter-snapshot frame.
func FuzzDecodeStatsReport(f *testing.F) {
	f.Add((&StatsReport{Received: 7, Measurements: 1}).Encode())
	f.Add((&StatsReport{}).Encode())
	f.Add([]byte{0x41, 0x53})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStatsReport(data)
		if err != nil {
			return
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatalf("accepted stats report does not round trip: %x", data)
		}
	})
}

// FuzzDecodeSwarmReq: the swarm broadcast-request decoder must never
// panic, and any frame it accepts must re-encode byte-identically (the
// parse is a bijection on its accepted set) — same hostile-bytes
// treatment as AttReq.
func FuzzDecodeSwarmReq(f *testing.F) {
	signed := &SwarmReq{OwnOnly: true, Root: 3, Nonce: 1, TreeID: 2}
	signed.Sign(NewMAC([]byte("fuzz-swarm-key")))
	f.Add(signed.Encode())
	f.Add((&SwarmReq{}).Encode())
	f.Add([]byte{})
	f.Add([]byte{0x41, 0x57, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSwarmReq(data)
		if err != nil {
			return
		}
		if !bytes.Equal(req.Encode(), data) {
			t.Fatalf("accepted swarm request does not round trip: %x", data)
		}
		var into SwarmReq
		if err := DecodeSwarmReqInto(data, &into); err != nil {
			t.Fatalf("DecodeSwarmReqInto rejects what DecodeSwarmReq accepts: %x", data)
		}
		if !bytes.Equal(into.Encode(), data) {
			t.Fatalf("decode-into swarm request does not round trip: %x", data)
		}
	})
}

// FuzzDecodeSwarmResp mirrors the request fuzzer for aggregate responses,
// including the variable-length presence bitmap.
func FuzzDecodeSwarmResp(f *testing.F) {
	resp := &SwarmResp{Depth: 2, Root: 1, Nonce: 9, Bitmap: []byte{0xFF, 0x01}}
	f.Add(resp.Encode())
	f.Add((&SwarmResp{}).Encode())
	f.Add([]byte{0x41, 0x56})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeSwarmResp(data)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatalf("accepted swarm response does not round trip: %x", data)
		}
		var into SwarmResp
		if err := DecodeSwarmRespInto(data, &into); err != nil {
			t.Fatalf("DecodeSwarmRespInto rejects what DecodeSwarmResp accepts: %x", data)
		}
		if !bytes.Equal(into.Encode(), data) {
			t.Fatalf("decode-into swarm response does not round trip: %x", data)
		}
	})
}
