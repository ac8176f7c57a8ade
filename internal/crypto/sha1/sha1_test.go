// Package sha1_test holds the SHA-1 known answers (FIPS 180-1, RFC 3174)
// as a conformance test of crypto/sha1, the digest every attestation MAC
// and boot digest in this repository is built on. A from-scratch SHA-1
// lived here until the standard library replaced it; the prover's time
// for it comes from internal/crypto/cost either way.
package sha1_test

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"strings"
	"testing"
)

// FIPS 180-1 / RFC 3174 test vectors.
var knownAnswers = []struct {
	in   string
	want string
}{
	{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
	{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
		"84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	{"The quick brown fox jumps over the lazy dog",
		"2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"},
	{"The quick brown fox jumps over the lazy cog",
		"de9f2c7fd25e1b3afad3e85a0bd17d9b100db4b3"},
	{strings.Repeat("a", 1000000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
}

func TestKnownAnswers(t *testing.T) {
	for _, tc := range knownAnswers {
		got := sha1.Sum([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.want {
			name := tc.in
			if len(name) > 32 {
				name = name[:32] + "..."
			}
			t.Errorf("Sum(%q) = %x, want %s", name, got, tc.want)
		}
	}
}

func TestStreamingEquivalence(t *testing.T) {
	// Writing in arbitrary chunk sizes must match the one-shot digest: the
	// anchor's chunked measurement streams the region this way.
	data := make([]byte, 4099)
	for i := range data {
		data[i] = byte(i * 131)
	}
	want := sha1.Sum(data)
	for _, chunk := range []int{1, 3, 63, 64, 65, 128, 1000} {
		d := sha1.New()
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			d.Write(data[off:end])
		}
		if got := d.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Errorf("chunk size %d: digest %x, want %x", chunk, got, want)
		}
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	d := sha1.New()
	d.Write([]byte("hello "))
	mid := d.Sum(nil)
	d.Write([]byte("world"))
	final := d.Sum(nil)
	want := sha1.Sum([]byte("hello world"))
	if !bytes.Equal(final, want[:]) {
		t.Fatalf("digest after intermediate Sum = %x, want %x", final, want)
	}
	wantMid := sha1.Sum([]byte("hello "))
	if !bytes.Equal(mid, wantMid[:]) {
		t.Fatalf("intermediate digest = %x, want %x", mid, wantMid)
	}
}

func TestReset(t *testing.T) {
	d := sha1.New()
	d.Write([]byte("garbage state"))
	d.Reset()
	d.Write([]byte("abc"))
	want := sha1.Sum([]byte("abc"))
	if got := d.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Fatalf("digest after Reset = %x, want %x", got, want)
	}
}

func TestLengthBoundaries(t *testing.T) {
	// Exercise every padding branch: messages whose length mod 64 straddles
	// the 55/56 padding boundary, streamed a byte at a time and hashed in
	// one call.
	for n := 0; n <= 130; n++ {
		data := bytes.Repeat([]byte{0xA5}, n)
		d := sha1.New()
		for i := range data {
			d.Write(data[i : i+1])
		}
		want := sha1.Sum(data)
		if got := d.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Fatalf("length %d: streamed digest %x, one-shot %x", n, got, want)
		}
	}
}
