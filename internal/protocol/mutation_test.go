package protocol

import (
	"math/rand"
	"testing"
)

// TestAnyBitFlipBreaksAuthentication: a single bit flipped anywhere in the
// authenticated portion of a signed request must make verification fail,
// for every symmetric scheme. This is the property the prover's gate
// stands on — an in-path adversary cannot usefully mutate genuine
// requests.
func TestAnyBitFlipBreaksAuthentication(t *testing.T) {
	req := &AttReq{
		Freshness: FreshCounter,
		Auth:      AuthHMACSHA1,
		Nonce:     7,
		Counter:   13,
		Timestamp: 99,
	}
	signed := req.SignedBytes()
	for _, a := range symmetricAuthenticators(t) {
		tag, err := a.Sign(signed)
		if err != nil {
			t.Fatal(err)
		}
		for byteIdx := 0; byteIdx < len(signed); byteIdx++ {
			for bit := 0; bit < 8; bit++ {
				mutated := append([]byte(nil), signed...)
				mutated[byteIdx] ^= 1 << bit
				if ok, _ := a.Verify(mutated, tag); ok {
					t.Fatalf("%v: flip of byte %d bit %d still verified", a.Kind(), byteIdx, bit)
				}
			}
		}
	}
}

// TestAnyTagBitFlipRejected: flipping any tag bit must break verification.
func TestAnyTagBitFlipRejected(t *testing.T) {
	signed := (&AttReq{Nonce: 1}).SignedBytes()
	for _, a := range symmetricAuthenticators(t) {
		tag, _ := a.Sign(signed)
		for byteIdx := range tag {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), tag...)
				bad[byteIdx] ^= 1 << bit
				if ok, _ := a.Verify(signed, bad); ok {
					t.Fatalf("%v: tag flip byte %d bit %d verified", a.Kind(), byteIdx, bit)
				}
			}
		}
	}
}

// TestRandomFrameMutationsNeverDecodeAndVerify: random multi-byte
// corruptions of a full encoded frame either fail to decode or fail
// verification — never both succeed. Deterministic seed keeps runs
// reproducible.
func TestRandomFrameMutationsNeverDecodeAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	auth := NewHMACAuth([]byte("gate-key-gate-key-20"))
	req := &AttReq{Freshness: FreshCounter, Auth: AuthHMACSHA1, Nonce: 5, Counter: 6}
	tag, _ := auth.Sign(req.SignedBytes())
	req.Tag = tag
	frame := req.Encode()

	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte(nil), frame...)
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		got, err := DecodeAttReq(mutated)
		if err != nil {
			continue // framing reject: fine
		}
		if ok, _ := auth.Verify(got.SignedBytes(), got.Tag); ok {
			// Only acceptable if the mutation was a no-op overall
			// (xor with itself cannot happen since we xor non-zero, but
			// two flips may cancel).
			if string(mutated) == string(frame) {
				continue
			}
			t.Fatalf("trial %d: corrupted frame decoded AND verified", trial)
		}
	}
}

// TestSwarmReqMutationsNeverDecodeAndVerify gives the swarm broadcast
// request the same hostile-bytes treatment: random corruptions of a
// K_Swarm-signed frame either fail framing or fail the gate MAC — a
// mutated request can never reach a node's measurement work.
func TestSwarmReqMutationsNeverDecodeAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	key := DeriveSwarmKey([]byte("mutation-master"))
	req := &SwarmReq{OwnOnly: false, Root: 12, Nonce: 5, TreeID: 6}
	req.Sign(NewMAC(key[:]))
	frame := req.Encode()
	auth := NewHMACAuth(key[:])

	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte(nil), frame...)
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		got, err := DecodeSwarmReq(mutated)
		if err != nil {
			continue // framing reject: fine
		}
		if ok, _ := auth.Verify(got.SignedBytes(), got.Tag); ok {
			if string(mutated) == string(frame) {
				continue // cancelling flips
			}
			t.Fatalf("trial %d: corrupted swarm request decoded AND verified", trial)
		}
	}
}

// TestSwarmRespMutationsNeverMatchAggregate: corruptions of an aggregate
// response either fail DecodeSwarmRespInto or change the decoded
// (aggregate, bitmap, depth, root, nonce) tuple — a mutation can never
// yield the same verifier-side acceptance as the original frame.
func TestSwarmRespMutationsNeverMatchAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	orig := &SwarmResp{Depth: 2, Root: 4, Nonce: 9, Bitmap: []byte{0xAB, 0x01}}
	for i := range orig.Aggregate {
		orig.Aggregate[i] = byte(i*31 + 1)
	}
	frame := orig.Encode()

	var got SwarmResp
	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte(nil), frame...)
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		if string(mutated) == string(frame) {
			continue // cancelling flips
		}
		if err := DecodeSwarmRespInto(mutated, &got); err != nil {
			continue // framing reject: fine
		}
		same := got.Depth == orig.Depth && got.Root == orig.Root &&
			got.Nonce == orig.Nonce && got.Aggregate == orig.Aggregate &&
			string(got.Bitmap) == string(orig.Bitmap)
		if same {
			t.Fatalf("trial %d: corrupted swarm response decoded to the original tuple", trial)
		}
	}
}

// TestCommandFrameMutations does the same for the service-command
// envelope, whose body is part of the authenticated bytes.
func TestCommandFrameMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	auth := NewHMACAuth([]byte("gate-key-gate-key-20"))
	req := &CommandReq{
		Kind:      CmdSecureUpdate,
		Freshness: FreshCounter,
		Auth:      AuthHMACSHA1,
		Nonce:     9,
		Counter:   10,
		Body:      []byte("firmware-fragment-bytes"),
	}
	tag, _ := auth.Sign(req.SignedBytes())
	req.Tag = tag
	frame := req.Encode()

	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte(nil), frame...)
		mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		got, err := DecodeCommandReq(mutated)
		if err != nil {
			continue
		}
		if ok, _ := auth.Verify(got.SignedBytes(), got.Tag); ok {
			t.Fatalf("trial %d: corrupted command decoded AND verified", trial)
		}
	}
}
