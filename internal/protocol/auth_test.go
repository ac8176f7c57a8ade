package protocol

import (
	"testing"

	"proverattest/internal/crypto/cost"
	"proverattest/internal/crypto/ecc"
)

var testKey16 = []byte("0123456789abcdef")

func symmetricAuthenticators(t *testing.T) []Authenticator {
	t.Helper()
	hm := NewHMACAuth(testKey16)
	ae, err := NewAESAuth(testKey16)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeckAuth(testKey16)
	if err != nil {
		t.Fatal(err)
	}
	return []Authenticator{hm, ae, sp}
}

func TestSymmetricSignVerifyRoundTrip(t *testing.T) {
	msg := (&AttReq{Nonce: 1, Counter: 2}).SignedBytes()
	for _, a := range symmetricAuthenticators(t) {
		tag, err := a.Sign(msg)
		if err != nil {
			t.Fatalf("%v: Sign: %v", a.Kind(), err)
		}
		if len(tag) != a.TagLen() {
			t.Errorf("%v: tag length %d, want %d", a.Kind(), len(tag), a.TagLen())
		}
		ok, c := a.Verify(msg, tag)
		if !ok {
			t.Errorf("%v: valid tag rejected", a.Kind())
		}
		if c == 0 {
			t.Errorf("%v: zero verification cost", a.Kind())
		}
	}
}

func TestSymmetricVerifyRejectsTampering(t *testing.T) {
	msg := (&AttReq{Nonce: 1, Counter: 2}).SignedBytes()
	msg2 := (&AttReq{Nonce: 1, Counter: 3}).SignedBytes()
	for _, a := range symmetricAuthenticators(t) {
		tag, _ := a.Sign(msg)
		if ok, _ := a.Verify(msg2, tag); ok {
			t.Errorf("%v: tag verified for a different message", a.Kind())
		}
		bad := append([]byte(nil), tag...)
		bad[0] ^= 1
		if ok, _ := a.Verify(msg, bad); ok {
			t.Errorf("%v: corrupted tag verified", a.Kind())
		}
		if ok, _ := a.Verify(msg, tag[:len(tag)-1]); ok {
			t.Errorf("%v: truncated tag verified", a.Kind())
		}
	}
}

func TestKeySeparation(t *testing.T) {
	msg := []byte("request")
	a1 := NewHMACAuth([]byte("key-one-key-one!"))
	a2 := NewHMACAuth([]byte("key-two-key-two!"))
	tag, _ := a1.Sign(msg)
	if ok, _ := a2.Verify(msg, tag); ok {
		t.Fatal("tag from key one verified under key two")
	}
}

func TestNoAuth(t *testing.T) {
	var a NoAuth
	tag, err := a.Sign([]byte("anything"))
	if err != nil || tag != nil {
		t.Fatalf("NoAuth.Sign = %v, %v", tag, err)
	}
	if ok, c := a.Verify([]byte("anything"), nil); !ok || c != 0 {
		t.Fatal("NoAuth rejected an untagged request or charged cycles")
	}
	// A stray tag on an unauthenticated request is a framing violation.
	if ok, _ := a.Verify([]byte("x"), []byte{1}); ok {
		t.Fatal("NoAuth accepted a tagged request")
	}
}

func TestECDSAAuth(t *testing.T) {
	key, err := ecc.GenerateKey([]byte("verifier"))
	if err != nil {
		t.Fatal(err)
	}
	signer := NewECDSAAuth(key)
	verifier := NewECDSAVerifier(key.Public)
	msg := (&AttReq{Nonce: 3}).SignedBytes()

	tag, err := signer.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tag) != signer.TagLen() {
		t.Fatalf("tag length %d, want %d", len(tag), signer.TagLen())
	}
	ok, c := verifier.Verify(msg, tag)
	if !ok {
		t.Fatal("valid signature rejected")
	}
	if c != cost.ECDSAVerify {
		t.Fatalf("verification cost %v, want %v", c, cost.ECDSAVerify)
	}

	// The prover-side instance cannot sign — it holds no private key to
	// steal, which is the one advantage public-key auth would have had.
	if _, err := verifier.Sign(msg); err != ErrVerifyOnly {
		t.Fatalf("verify-only Sign err = %v, want ErrVerifyOnly", err)
	}

	// Malformed signature short-circuits before the point arithmetic.
	if ok, c := verifier.Verify(msg, []byte{1, 2, 3}); ok || c >= cost.ECDSAVerify {
		t.Fatalf("malformed signature: ok=%v cost=%v", ok, c)
	}

	bad := append([]byte(nil), tag...)
	bad[5] ^= 0xFF
	if ok, _ := verifier.Verify(msg, bad); ok {
		t.Fatal("corrupted signature verified")
	}
}

func TestVerificationCostsMatchTable1(t *testing.T) {
	// §4.1 one-block request costs: the signed header is 34 bytes, which is
	// one HMAC block, three AES blocks (34+pad → 48), five Speck blocks
	// (34+pad → 40).
	msg := (&AttReq{}).SignedBytes()
	hm := NewHMACAuth(testKey16)
	if _, c := hm.Verify(msg, make([]byte, 20)); c != cost.HMACSHA1(len(msg)) {
		t.Errorf("HMAC cost %v, want %v", c, cost.HMACSHA1(len(msg)))
	}
	ae, _ := NewAESAuth(testKey16)
	if _, c := ae.Verify(msg, make([]byte, 16)); c != 3*cost.AESEncryptBlock {
		t.Errorf("AES cost %v, want %v", c, 3*cost.AESEncryptBlock)
	}
	sp, _ := NewSpeckAuth(testKey16)
	if _, c := sp.Verify(msg, make([]byte, 8)); c != 5*cost.SpeckEncryptBlock {
		t.Errorf("Speck cost %v, want %v", c, 5*cost.SpeckEncryptBlock)
	}
}

func TestNewAuthenticatorFactory(t *testing.T) {
	for _, kind := range []AuthKind{AuthNone, AuthHMACSHA1, AuthAESCBCMAC, AuthSpeckCBCMAC} {
		a, err := NewAuthenticator(kind, testKey16)
		if err != nil {
			t.Fatalf("NewAuthenticator(%v): %v", kind, err)
		}
		if a.Kind() != kind {
			t.Errorf("factory built %v for %v", a.Kind(), kind)
		}
	}
	if _, err := NewAuthenticator(AuthECDSA, testKey16); err == nil {
		t.Error("factory built ECDSA from a symmetric key")
	}
	if _, err := NewAuthenticator(AuthKind(99), testKey16); err == nil {
		t.Error("factory built an unknown kind")
	}
	for _, n := range []int{0, 5, 15, 17, 24, 32} {
		if _, err := NewAuthenticator(AuthAESCBCMAC, make([]byte, n)); err == nil {
			t.Errorf("factory accepted a %d-byte AES key, want AES-128 only", n)
		}
	}
}
