// Package aes_test holds the AES-128 known answers (FIPS 197, NIST
// AESAVS) and the CBC and CBC-MAC checks as a conformance test of what
// replaced the from-scratch AES that lived here: crypto/aes for the
// block, crypto/cipher's CBC mode, the shared CBC-MAC in
// internal/crypto/cbcmac that the AES request authenticator uses, and the
// AES-128 key rule that authenticator's constructor enforces.
package aes_test

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"testing"

	"proverattest/internal/crypto/cbcmac"
	"proverattest/internal/protocol"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func newBlock(t *testing.T, key []byte) cipher.Block {
	t.Helper()
	b, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FIPS 197 Appendix C.1 known-answer test.
func TestFIPS197Vector(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	pt := mustHex(t, "00112233445566778899aabbccddeeff")
	wantCT := mustHex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")

	c := newBlock(t, key)
	ct := make([]byte, 16)
	c.Encrypt(ct, pt)
	if !bytes.Equal(ct, wantCT) {
		t.Fatalf("Encrypt = %x, want %x", ct, wantCT)
	}
	back := make([]byte, 16)
	c.Decrypt(back, ct)
	if !bytes.Equal(back, pt) {
		t.Fatalf("Decrypt(Encrypt(pt)) = %x, want %x", back, pt)
	}
}

// FIPS 197 Appendix B vector (different key/plaintext pair).
func TestFIPS197AppendixB(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := mustHex(t, "3243f6a8885a308d313198a2e0370734")
	wantCT := mustHex(t, "3925841d02dc09fbdc118597196a0b32")

	ct := make([]byte, 16)
	newBlock(t, key).Encrypt(ct, pt)
	if !bytes.Equal(ct, wantCT) {
		t.Fatalf("Encrypt = %x, want %x", ct, wantCT)
	}
}

// NIST AESAVS known-answer spot checks (GFSbox, VarKey and VarTxt
// vectors for AES-128).
func TestNISTAESAVSVectors(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		// GFSbox KAT #1 and #2 (key = 0).
		{"00000000000000000000000000000000", "f34481ec3cc627bacd5dc3fb08f273e6", "0336763e966d92595a567cc9ce537f5e"},
		{"00000000000000000000000000000000", "9798c4640bad75c7c3227db910174e72", "a9a1631bf4996954ebc093957b234589"},
		// VarKey KAT #1 (pt = 0, key = 80...0).
		{"80000000000000000000000000000000", "00000000000000000000000000000000", "0edd33d3c621e546455bd8ba1418bec8"},
		// VarTxt KAT #1 (key = 0, pt = 80...0).
		{"00000000000000000000000000000000", "80000000000000000000000000000000", "3ad78e726c1ec02b7ebfe92b23d9ec34"},
	}
	for i, tc := range cases {
		ct := make([]byte, 16)
		newBlock(t, mustHex(t, tc.key)).Encrypt(ct, mustHex(t, tc.pt))
		if !bytes.Equal(ct, mustHex(t, tc.ct)) {
			t.Errorf("AESAVS vector %d: got %x, want %s", i, ct, tc.ct)
		}
	}
}

// TestInvalidKeySize pins the AES request scheme to AES-128, the contract
// the from-scratch constructor kept here enforced: crypto/aes would take a
// 24- or 32-byte key as AES-192 or AES-256, so protocol.NewAESAuth refuses
// every length but 16.
func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 15, 17, 24, 32} {
		if _, err := protocol.NewAESAuth(make([]byte, n)); err == nil {
			t.Errorf("NewAESAuth(%d-byte key) succeeded, want error", n)
		}
	}
	if _, err := protocol.NewAESAuth(make([]byte, 16)); err != nil {
		t.Errorf("NewAESAuth(16-byte key): %v", err)
	}
}

// TestCBCRoundTrip runs the NIST SP 800-38A F.2.1 CBC-AES128 vector
// through crypto/cipher's CBC mode, then decrypts it back.
func TestCBCRoundTrip(t *testing.T) {
	c := newBlock(t, mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	iv := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	msg := mustHex(t, "6bc1bee22e409f96e93d7e117393172a"+"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+"f69f2445df4f9b17ad2b417be66c3710")
	want := mustHex(t, "7649abac8119b246cee98e9b12e9197d"+"5086cb9b507219ee95db113a917678b2"+
		"73bed6b8e3c1743b7116e69e22229516"+"3ff1caa1681fac09120eca307586e1a7")
	ct := make([]byte, len(msg))
	cipher.NewCBCEncrypter(c, iv).CryptBlocks(ct, msg)
	if !bytes.Equal(ct, want) {
		t.Fatalf("CBC encrypt = %x, want %x", ct, want)
	}
	pt := make([]byte, len(ct))
	cipher.NewCBCDecrypter(c, iv).CryptBlocks(pt, ct)
	if !bytes.Equal(pt, msg) {
		t.Fatalf("CBC round trip: got %x, want %x", pt, msg)
	}
}

// TestCBCAgainstStdlib checks the CBC-MAC against the standard library's
// CBC mode: the tag is the last ciphertext block of the 10*-padded
// message under a zero IV, for unaligned and aligned lengths.
func TestCBCAgainstStdlib(t *testing.T) {
	c := newBlock(t, mustHex(t, "603deb1015ca71be2b73aef0857d7781"))
	for _, n := range []int{0, 1, 15, 16, 17, 34, 64} {
		msg := bytes.Repeat([]byte{0x42}, n)
		padded := append(append([]byte(nil), msg...), 0x80)
		for len(padded)%aes.BlockSize != 0 {
			padded = append(padded, 0)
		}
		ct := make([]byte, len(padded))
		cipher.NewCBCEncrypter(c, make([]byte, aes.BlockSize)).CryptBlocks(ct, padded)

		tag := make([]byte, aes.BlockSize)
		cbcmac.Sum(c, tag, msg)
		if want := ct[len(ct)-aes.BlockSize:]; !bytes.Equal(tag, want) {
			t.Fatalf("length %d: CBC-MAC %x, want last CBC block %x", n, tag, want)
		}
	}
}

func tagOf(t *testing.T, c cipher.Block, msg string) [aes.BlockSize]byte {
	t.Helper()
	var tag [aes.BlockSize]byte
	cbcmac.Sum(c, tag[:], []byte(msg))
	return tag
}

func TestMACDistinguishesMessages(t *testing.T) {
	c := newBlock(t, []byte("0123456789abcdef"))
	t1 := tagOf(t, c, "request 1")
	t2 := tagOf(t, c, "request 2")
	if t1 == t2 {
		t.Fatal("MAC identical for different messages")
	}
	// Padding injectivity: a message must not collide with itself plus the
	// padding byte.
	t3 := tagOf(t, c, "request 1\x80")
	if t1 == t3 {
		t.Fatal("MAC padding is not injective")
	}
}

func TestMACDeterministic(t *testing.T) {
	c := newBlock(t, []byte("0123456789abcdef"))
	msg := "the same request bytes"
	if tagOf(t, c, msg) != tagOf(t, c, msg) {
		t.Fatal("MAC not deterministic")
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c, _ := aes.NewCipher(make([]byte, 16))
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(blk, blk)
	}
}
