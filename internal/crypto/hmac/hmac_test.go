// Package hmac_test holds the HMAC-SHA1 known answers (RFC 2202) as a
// conformance test of what replaced the from-scratch HMAC that lived
// here: crypto/hmac over crypto/sha1 for one-shot tags, and
// protocol.MAC, the keyed HMAC the verifier, the authenticators and the
// swarm hold per key and Reset per use.
package hmac_test

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"

	"proverattest/internal/protocol"
)

// RFC 2202 HMAC-SHA1 test vectors.
var rfc2202 = []struct {
	key, data []byte
	want      string
}{
	{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
		"b617318655057264e28bc0b6fb378c8ef146be00"},
	{[]byte("Jefe"), []byte("what do ya want for nothing?"),
		"effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
	{bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50),
		"125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
	{mustHex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
		bytes.Repeat([]byte{0xcd}, 50),
		"4c9007f4026250c6bc8414f9bf50c86c2d7235da"},
	{bytes.Repeat([]byte{0x0c}, 20), []byte("Test With Truncation"),
		"4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"},
	{bytes.Repeat([]byte{0xaa}, 80),
		[]byte("Test Using Larger Than Block-Size Key - Hash Key First"),
		"aa4ae5e15272d00e95705637ce8a3b55ed402112"},
	{bytes.Repeat([]byte{0xaa}, 80),
		[]byte("Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"),
		"e8e99d0f45237d786d6bbaa7965c7808bbff1a91"},
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// oneShot is HMAC-SHA1(key, msg) from a freshly keyed crypto/hmac.
func oneShot(key, msg []byte) []byte {
	m := hmac.New(sha1.New, key)
	m.Write(msg)
	return m.Sum(nil)
}

func TestRFC2202Vectors(t *testing.T) {
	for i, tc := range rfc2202 {
		if got := oneShot(tc.key, tc.data); hex.EncodeToString(got) != tc.want {
			t.Errorf("vector %d: crypto/hmac tag %x, want %s", i+1, got, tc.want)
		}
		if got := protocol.NewMAC(tc.key).Tag(tc.data); hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("vector %d: held MAC tag %x, want %s", i+1, got, tc.want)
		}
	}
}

// TestAgainstStdlib cross-checks the held MAC, reused for a second
// message, against a freshly keyed crypto/hmac over random inputs.
func TestAgainstStdlib(t *testing.T) {
	f := func(key, msg1, msg2 []byte) bool {
		m := protocol.NewMAC(key)
		first := *m.Tag(msg1)
		second := *m.Tag(msg2)
		return bytes.Equal(first[:], oneShot(key, msg1)) && bytes.Equal(second[:], oneShot(key, msg2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingMatchesOneShot(t *testing.T) {
	key := []byte("attestation-key")
	msg := []byte(strings.Repeat("prover memory contents ", 40))
	want := oneShot(key, msg)

	m := hmac.New(sha1.New, key)
	for i := 0; i < len(msg); i += 7 {
		end := i + 7
		if end > len(msg) {
			end = len(msg)
		}
		m.Write(msg[i:end])
	}
	if got := m.Sum(nil); !bytes.Equal(got, want) {
		t.Fatalf("streamed tag %x, want %x", got, want)
	}
}

func TestReset(t *testing.T) {
	key := []byte("k")
	m := hmac.New(sha1.New, key)
	m.Write([]byte("first message"))
	m.Reset()
	m.Write([]byte("abc"))
	want := oneShot(key, []byte("abc"))
	if got := m.Sum(nil); !bytes.Equal(got, want) {
		t.Fatalf("tag after Reset = %x, want %x", got, want)
	}
}

func TestSumIsRepeatable(t *testing.T) {
	m := hmac.New(sha1.New, []byte("key"))
	m.Write([]byte("msg"))
	a := m.Sum(nil)
	b := m.Sum(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("consecutive Sum calls differ: %x vs %x", a, b)
	}
}

func TestEqual(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	b := []byte{1, 2, 3, 4}
	c := []byte{1, 2, 3, 5}
	short := []byte{1, 2, 3}
	if !hmac.Equal(a, b) {
		t.Error("Equal(a, a-copy) = false")
	}
	if hmac.Equal(a, c) {
		t.Error("Equal(a, c) = true for differing tags")
	}
	if hmac.Equal(a, short) {
		t.Error("Equal(a, short) = true for different lengths")
	}
	if !hmac.Equal(nil, nil) {
		t.Error("Equal(nil, nil) = false")
	}
}

func TestKeySensitivity(t *testing.T) {
	msg := []byte("the same message")
	t1 := protocol.NewMAC([]byte("key-one")).Tag(msg)
	t2 := protocol.NewMAC([]byte("key-two")).Tag(msg)
	if *t1 == *t2 {
		t.Fatal("different keys produced identical tags")
	}
}

// TestResetReuseMatchesFresh pins the held-key contract: a MAC that is
// reused across many messages must produce exactly the tags a freshly
// keyed HMAC would, including for long (hashed) keys.
func TestResetReuseMatchesFresh(t *testing.T) {
	keys := [][]byte{
		[]byte("k"),
		[]byte("attestation-key"),
		bytes.Repeat([]byte{0xaa}, 80), // > block size: hashed first
	}
	for _, key := range keys {
		m := protocol.NewMAC(key)
		for i := 0; i < 32; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, i*7+1)
			want := oneShot(key, msg)
			if got := m.Tag(msg); !bytes.Equal(got[:], want) {
				t.Fatalf("key %d msg %d: reused tag = %x, want %x", len(key), i, got, want)
			}
		}
	}
}

// TestResetReuseAllocs pins the hot-path contract the verifier gate and
// the swarm fold rely on: a held MAC tags a heap message without
// allocating, and so does crypto/hmac itself once Reset has saved the
// keyed state, as long as the tag lands in a buffer the caller holds.
func TestResetReuseAllocs(t *testing.T) {
	msg := []byte("R|nonce|counter|signed request bytes")
	m := protocol.NewMAC([]byte("attestation-key"))
	m.Tag(msg)
	if allocs := testing.AllocsPerRun(1000, func() { m.Tag(msg) }); allocs != 0 {
		t.Fatalf("held MAC Tag allocated %.1f/op, want 0", allocs)
	}

	h := hmac.New(sha1.New, []byte("attestation-key"))
	tag := make([]byte, 0, sha1.Size)
	h.Reset()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Reset()
		h.Write(msg)
		h.Sum(tag[:0])
	})
	if allocs != 0 {
		t.Fatalf("crypto/hmac Reset+Write+Sum allocated %.1f/op, want 0", allocs)
	}
}

// benchMsg is sized like the frames the gate MACs: small enough that the
// two pad-block compressions dominate when they are not saved.
var benchMsg = []byte("R|nonce=0123456789abcdef|counter=0123456789abcdef|v1")

// BenchmarkMACRekey is the one-shot picture: keying a fresh HMAC per tag.
func BenchmarkMACRekey(b *testing.B) {
	key := []byte("attestation-key")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oneShot(key, benchMsg)
	}
}

// BenchmarkMACReset is the held picture: one MAC per key, reused.
func BenchmarkMACReset(b *testing.B) {
	m := protocol.NewMAC([]byte("attestation-key"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Tag(benchMsg)
	}
}
