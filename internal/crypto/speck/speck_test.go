package speck

import (
	"bytes"
	"crypto/cipher"
	"testing"
	"testing/quick"

	"proverattest/internal/crypto/cbcmac"
)

// Official Speck 64/128 test vector from the SIMON/SPECK paper (ePrint
// 2013/404, Appendix C): key words 1b1a1918 13121110 0b0a0908 03020100,
// plaintext (x, y) = (3b726574, 7475432d), ciphertext (8c6fa548, 454e028b).
func TestReferenceVectorWords(t *testing.T) {
	c := NewFromWords([4]uint32{0x03020100, 0x0b0a0908, 0x13121110, 0x1b1a1918})
	x, y := c.encryptWords(0x3b726574, 0x7475432d)
	if x != 0x8c6fa548 || y != 0x454e028b {
		t.Fatalf("encryptWords = (%08x, %08x), want (8c6fa548, 454e028b)", x, y)
	}
	px, py := c.decryptWords(x, y)
	if px != 0x3b726574 || py != 0x7475432d {
		t.Fatalf("decryptWords = (%08x, %08x), want (3b726574, 7475432d)", px, py)
	}
}

func TestReferenceVectorBytes(t *testing.T) {
	// Same vector through the byte-level interface: little-endian words,
	// y at offset 0, x at offset 4.
	key := []byte{
		0x00, 0x01, 0x02, 0x03,
		0x08, 0x09, 0x0a, 0x0b,
		0x10, 0x11, 0x12, 0x13,
		0x18, 0x19, 0x1a, 0x1b,
	}
	pt := []byte{0x2d, 0x43, 0x75, 0x74, 0x74, 0x65, 0x72, 0x3b}
	wantCT := []byte{0x8b, 0x02, 0x4e, 0x45, 0x48, 0xa5, 0x6f, 0x8c}

	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, 8)
	c.Encrypt(ct, pt)
	if !bytes.Equal(ct, wantCT) {
		t.Fatalf("Encrypt = %x, want %x", ct, wantCT)
	}
	back := make([]byte, 8)
	c.Decrypt(back, ct)
	if !bytes.Equal(back, pt) {
		t.Fatalf("Decrypt(Encrypt(pt)) = %x, want %x", back, pt)
	}
}

func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New(%d-byte key) succeeded, want error", n)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(key [16]byte, block [8]byte) bool {
		c, err := New(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, 8)
		pt := make([]byte, 8)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKeySensitivity(t *testing.T) {
	k1 := make([]byte, 16)
	k2 := make([]byte, 16)
	k2[0] = 1
	c1, _ := New(k1)
	c2, _ := New(k2)
	blk := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	a := make([]byte, 8)
	b := make([]byte, 8)
	c1.Encrypt(a, blk)
	c2.Encrypt(b, blk)
	if bytes.Equal(a, b) {
		t.Fatal("one-bit key change produced identical ciphertext")
	}
}

// The CBC tests run the standard library's CBC mode over Speck through
// its cipher.Block methods.

func TestCBCRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, 16)
	iv := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("req-data"), 6) // 48 bytes, aligned
	ct := make([]byte, len(msg))
	cipher.NewCBCEncrypter(c, iv).CryptBlocks(ct, msg)
	if bytes.Equal(ct, msg) {
		t.Fatal("CBC ciphertext equals plaintext")
	}
	pt := make([]byte, len(ct))
	cipher.NewCBCDecrypter(c, iv).CryptBlocks(pt, ct)
	if !bytes.Equal(pt, msg) {
		t.Fatalf("CBC round trip: got %x, want %x", pt, msg)
	}
}

func TestCBCChainsBlocks(t *testing.T) {
	// Two identical plaintext blocks must encrypt to different ciphertext
	// blocks under CBC.
	c, _ := New(make([]byte, 16))
	msg := bytes.Repeat([]byte{0x11}, 16)
	ct := make([]byte, len(msg))
	cipher.NewCBCEncrypter(c, make([]byte, 8)).CryptBlocks(ct, msg)
	if bytes.Equal(ct[:8], ct[8:]) {
		t.Fatal("CBC produced identical ciphertext blocks for identical plaintext blocks")
	}
}

func TestMACProperties(t *testing.T) {
	c, _ := New([]byte("speck-64-128-key"))
	tag := func(msg string) [BlockSize]byte {
		var out [BlockSize]byte
		cbcmac.Sum(c, out[:], []byte(msg))
		return out
	}
	t1 := tag("attreq|counter=7")
	t2 := tag("attreq|counter=8")
	if t1 == t2 {
		t.Fatal("MAC identical for different messages")
	}
	if tag("attreq|counter=7") != t1 {
		t.Fatal("MAC not deterministic")
	}
	// Padding injectivity across the padding byte.
	if tag("abc") == tag("abc\x80") {
		t.Fatal("MAC padding is not injective")
	}
	// The tag is the last block of the standard CBC mode over the
	// 10*-padded message under a zero IV.
	padded := []byte("attreq|counter=7\x80\x00\x00\x00\x00\x00\x00\x00")
	ct := make([]byte, len(padded))
	cipher.NewCBCEncrypter(c, make([]byte, BlockSize)).CryptBlocks(ct, padded)
	if !bytes.Equal(t1[:], ct[len(ct)-BlockSize:]) {
		t.Fatalf("MAC %x, want last CBC block %x", t1, ct[len(ct)-BlockSize:])
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c, _ := New(make([]byte, 16))
	blk := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		c.Encrypt(blk, blk)
	}
}
