// Package ecc implements the secp160r1 elliptic curve and ECDSA signatures
// over it, the public-key alternative the paper evaluates (and rules out)
// for authenticating attestation requests: at ~170 ms per verification on a
// 24 MHz core, merely checking a signature is itself a denial-of-service
// (Table 1, §4.1). The curve arithmetic is written from scratch on
// math/big, since the standard library has no secp160r1; hashing uses
// crypto/sha1 and crypto/hmac.
package ecc

import (
	"crypto/hmac"
	"crypto/sha1"
	"errors"
	"fmt"
	"math/big"
)

// Curve parameters for secp160r1 (SEC 2, §2.4.2):
// p = 2^160 − 2^31 − 1, a = −3, cofactor 1.
var (
	p  = mustInt("ffffffffffffffffffffffffffffffff7fffffff")
	a  = mustInt("ffffffffffffffffffffffffffffffff7ffffffc")
	b  = mustInt("1c97befc54bd7a8b65acf89f81d4d4adc565fa45")
	gx = mustInt("4a96b5688ef573284664698968c38bb913cbfc82")
	gy = mustInt("23a628553168947d59dcc912042351377ac5fb32")
	n  = mustInt("0100000000000000000001f4c8f927aed3ca752257")
)

// OrderByteLen is the byte length of the group order (n is 161 bits).
const OrderByteLen = 21

// SignatureSize is the encoded signature length: r and s, each padded to
// the order length.
const SignatureSize = 2 * OrderByteLen

func mustInt(hexStr string) *big.Int {
	v, ok := new(big.Int).SetString(hexStr, 16)
	if !ok {
		panic("ecc: bad curve constant " + hexStr)
	}
	return v
}

// Point is a point on secp160r1 in affine coordinates; Inf marks the point
// at infinity.
type Point struct {
	X, Y *big.Int
	Inf  bool
}

// Infinity returns the identity element.
func Infinity() Point { return Point{Inf: true} }

// Generator returns the curve's base point G.
func Generator() Point {
	return Point{X: new(big.Int).Set(gx), Y: new(big.Int).Set(gy)}
}

// Order returns a copy of the group order n.
func Order() *big.Int { return new(big.Int).Set(n) }

// OnCurve reports whether pt satisfies y² = x³ + ax + b (mod p).
func OnCurve(pt Point) bool {
	if pt.Inf {
		return true
	}
	if pt.X == nil || pt.Y == nil {
		return false
	}
	if pt.X.Sign() < 0 || pt.X.Cmp(p) >= 0 || pt.Y.Sign() < 0 || pt.Y.Cmp(p) >= 0 {
		return false
	}
	y2 := new(big.Int).Mul(pt.Y, pt.Y)
	y2.Mod(y2, p)
	rhs := new(big.Int).Mul(pt.X, pt.X)
	rhs.Mul(rhs, pt.X)
	ax := new(big.Int).Mul(a, pt.X)
	rhs.Add(rhs, ax)
	rhs.Add(rhs, b)
	rhs.Mod(rhs, p)
	return y2.Cmp(rhs) == 0
}

// Add returns p1 + p2 using the affine group law.
func Add(p1, p2 Point) Point {
	if p1.Inf {
		return clonePoint(p2)
	}
	if p2.Inf {
		return clonePoint(p1)
	}
	if p1.X.Cmp(p2.X) == 0 {
		// Either a doubling or inverse points summing to infinity.
		sum := new(big.Int).Add(p1.Y, p2.Y)
		sum.Mod(sum, p)
		if sum.Sign() == 0 {
			return Infinity()
		}
		return Double(p1)
	}
	// λ = (y2 − y1) / (x2 − x1)
	num := new(big.Int).Sub(p2.Y, p1.Y)
	den := new(big.Int).Sub(p2.X, p1.X)
	den.Mod(den, p)
	den.ModInverse(den, p)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, p)
	return chord(p1, p2, lambda)
}

// Double returns 2·pt.
func Double(pt Point) Point {
	if pt.Inf || pt.Y.Sign() == 0 {
		return Infinity()
	}
	// λ = (3x² + a) / 2y
	num := new(big.Int).Mul(pt.X, pt.X)
	num.Mul(num, big.NewInt(3))
	num.Add(num, a)
	den := new(big.Int).Lsh(pt.Y, 1)
	den.Mod(den, p)
	den.ModInverse(den, p)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, p)
	return chord(pt, pt, lambda)
}

// chord completes point addition given the slope λ through p1 and p2.
func chord(p1, p2 Point, lambda *big.Int) Point {
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, p1.X)
	x3.Sub(x3, p2.X)
	x3.Mod(x3, p)
	y3 := new(big.Int).Sub(p1.X, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, p1.Y)
	y3.Mod(y3, p)
	return Point{X: x3, Y: y3}
}

// ScalarMult returns k·pt via double-and-add.
func ScalarMult(k *big.Int, pt Point) Point {
	result := Infinity()
	addend := clonePoint(pt)
	kk := new(big.Int).Set(k)
	if kk.Sign() < 0 {
		kk.Mod(kk, n)
	}
	for i := 0; i < kk.BitLen(); i++ {
		if kk.Bit(i) == 1 {
			result = Add(result, addend)
		}
		addend = Double(addend)
	}
	return result
}

// ScalarBaseMult returns k·G.
func ScalarBaseMult(k *big.Int) Point { return ScalarMult(k, Generator()) }

func clonePoint(pt Point) Point {
	if pt.Inf {
		return Infinity()
	}
	return Point{X: new(big.Int).Set(pt.X), Y: new(big.Int).Set(pt.Y)}
}

// PrivateKey is an ECDSA private key on secp160r1.
type PrivateKey struct {
	D      *big.Int
	Public Point
}

// GenerateKey derives a key pair deterministically from seed material,
// suitable for reproducible simulations (there is no OS entropy in the
// simulated prover). The seed is expanded with HMAC-SHA1 until a scalar in
// [1, n−1] is found.
func GenerateKey(seed []byte) (*PrivateKey, error) {
	if len(seed) == 0 {
		return nil, errors.New("ecc: empty key seed")
	}
	for counter := byte(0); counter < 255; counter++ {
		d := expandToScalar(seed, []byte{'k', 'e', 'y', counter})
		if d.Sign() > 0 && d.Cmp(n) < 0 {
			return &PrivateKey{D: d, Public: ScalarBaseMult(d)}, nil
		}
	}
	return nil, errors.New("ecc: could not derive a valid scalar from seed")
}

// expandToScalar produces a candidate scalar below 2^168 reduced into the
// order's bit range.
func expandToScalar(seed, label []byte) *big.Int {
	m := hmac.New(sha1.New, seed)
	m.Write(label)
	stream := m.Sum(nil)
	m.Reset()
	m.Write(append(label, 0x01))
	stream = m.Sum(stream)
	v := new(big.Int).SetBytes(stream[:OrderByteLen])
	// bits2int (RFC 6979 §2.3.2): the shift is by the excess of the octet
	// string's bit capacity over qlen, not of the value's bit length —
	// otherwise every candidate would start with a 1 bit and land above n.
	excess := 8*OrderByteLen - n.BitLen()
	if excess > 0 {
		v.Rsh(v, uint(excess))
	}
	return v
}

// Signature is an ECDSA signature pair.
type Signature struct {
	R, S *big.Int
}

// Encode serialises the signature as two fixed-width big-endian integers.
func (sig Signature) Encode() []byte {
	out := make([]byte, SignatureSize)
	sig.R.FillBytes(out[:OrderByteLen])
	sig.S.FillBytes(out[OrderByteLen:])
	return out
}

// DecodeSignature parses the fixed-width encoding produced by Encode.
func DecodeSignature(buf []byte) (Signature, error) {
	if len(buf) != SignatureSize {
		return Signature{}, fmt.Errorf("ecc: signature length %d (want %d)", len(buf), SignatureSize)
	}
	r := new(big.Int).SetBytes(buf[:OrderByteLen])
	s := new(big.Int).SetBytes(buf[OrderByteLen:])
	return Signature{R: r, S: s}, nil
}

// hashToInt converts a SHA-1 digest to an integer per ECDSA (the digest is
// 160 bits, shorter than the 161-bit order, so it is used whole).
func hashToInt(digest [sha1.Size]byte) *big.Int {
	return new(big.Int).SetBytes(digest[:])
}

// Sign produces a deterministic ECDSA signature over msg. The per-signature
// nonce is derived RFC 6979-style from the private key and message digest,
// so the simulated prover and verifier need no entropy source and runs are
// reproducible.
func Sign(priv *PrivateKey, msg []byte) (Signature, error) {
	if priv == nil || priv.D == nil {
		return Signature{}, errors.New("ecc: nil private key")
	}
	digest := sha1.Sum(msg)
	e := hashToInt(digest)
	keyBytes := make([]byte, OrderByteLen)
	priv.D.FillBytes(keyBytes)

	for counter := byte(0); counter < 255; counter++ {
		k := expandToScalar(append(keyBytes, digest[:]...), []byte{'n', 'o', 'n', 'c', 'e', counter})
		if k.Sign() <= 0 || k.Cmp(n) >= 0 {
			continue
		}
		pt := ScalarBaseMult(k)
		r := new(big.Int).Mod(pt.X, n)
		if r.Sign() == 0 {
			continue
		}
		kInv := new(big.Int).ModInverse(k, n)
		s := new(big.Int).Mul(r, priv.D)
		s.Add(s, e)
		s.Mul(s, kInv)
		s.Mod(s, n)
		if s.Sign() == 0 {
			continue
		}
		return Signature{R: r, S: s}, nil
	}
	return Signature{}, errors.New("ecc: nonce derivation exhausted")
}

// Verify reports whether sig is a valid signature over msg for pub.
func Verify(pub Point, msg []byte, sig Signature) bool {
	if pub.Inf || !OnCurve(pub) {
		return false
	}
	if sig.R == nil || sig.S == nil {
		return false
	}
	if sig.R.Sign() <= 0 || sig.R.Cmp(n) >= 0 || sig.S.Sign() <= 0 || sig.S.Cmp(n) >= 0 {
		return false
	}
	digest := sha1.Sum(msg)
	e := hashToInt(digest)
	w := new(big.Int).ModInverse(sig.S, n)
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, n)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, n)
	pt := Add(ScalarBaseMult(u1), ScalarMult(u2, pub))
	if pt.Inf {
		return false
	}
	v := new(big.Int).Mod(pt.X, n)
	return v.Cmp(sig.R) == 0
}
