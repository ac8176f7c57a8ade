// Package speck is a from-scratch implementation of the Speck 64/128
// lightweight block cipher (Beaulieu et al., "The SIMON and SPECK Families
// of Lightweight Block Ciphers", 2013). The paper singles Speck out as the
// cheapest request-authentication primitive for a low-end prover:
// 0.015–0.017 ms per 8-byte block at 24 MHz once the key schedule is
// precomputed (Table 1, §4.1). The standard library has no Speck; Cipher
// is a crypto/cipher.Block, so the standard CBC mode and the shared
// CBC-MAC (internal/crypto/cbcmac) run over it as over AES.
package speck

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// BlockSize is the Speck 64/128 block size in bytes (64-bit blocks).
const BlockSize = 8

// KeySize is the Speck 64/128 key size in bytes (128-bit keys).
const KeySize = 16

const rounds = 27

// Cipher is an expanded Speck 64/128 key schedule.
type Cipher struct {
	rk [rounds]uint32
}

// New expands a 16-byte key. Word order follows the reference
// implementation: key bytes are four little-endian 32-bit words, the first
// word being k[0].
func New(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("speck: invalid key size %d (want %d)", len(key), KeySize)
	}
	var k [4]uint32
	for i := range k {
		k[i] = binary.LittleEndian.Uint32(key[i*4:])
	}
	return NewFromWords(k), nil
}

// NewFromWords expands a key given as the reference implementation's word
// array: k[0] is the first round key, k[1..3] seed the l-sequence.
func NewFromWords(k [4]uint32) *Cipher {
	c := &Cipher{}
	l := [3]uint32{k[1], k[2], k[3]}
	c.rk[0] = k[0]
	for i := 0; i < rounds-1; i++ {
		newL := (c.rk[i] + ror32(l[i%3], 8)) ^ uint32(i)
		c.rk[i+1] = rol32(c.rk[i], 3) ^ newL
		l[i%3] = newL
	}
	return c
}

func ror32(v uint32, r uint) uint32 { return v>>r | v<<(32-r) }
func rol32(v uint32, r uint) uint32 { return v<<r | v>>(32-r) }

// encryptWords runs the Speck round function on a block given as the word
// pair (x, y) of the reference test vectors.
func (c *Cipher) encryptWords(x, y uint32) (uint32, uint32) {
	for i := 0; i < rounds; i++ {
		x = (ror32(x, 8) + y) ^ c.rk[i]
		y = rol32(y, 3) ^ x
	}
	return x, y
}

// decryptWords inverts encryptWords.
func (c *Cipher) decryptWords(x, y uint32) (uint32, uint32) {
	for i := rounds - 1; i >= 0; i-- {
		y = ror32(y^x, 3)
		x = rol32((x^c.rk[i])-y, 8)
	}
	return x, y
}

// Encrypt encrypts one 8-byte block. Byte layout follows the reference
// implementation: src[0:4] is word y (little-endian), src[4:8] is word x.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("speck: short block")
	}
	y := binary.LittleEndian.Uint32(src[0:])
	x := binary.LittleEndian.Uint32(src[4:])
	x, y = c.encryptWords(x, y)
	binary.LittleEndian.PutUint32(dst[0:], y)
	binary.LittleEndian.PutUint32(dst[4:], x)
}

// Decrypt decrypts one 8-byte block.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("speck: short block")
	}
	y := binary.LittleEndian.Uint32(src[0:])
	x := binary.LittleEndian.Uint32(src[4:])
	x, y = c.decryptWords(x, y)
	binary.LittleEndian.PutUint32(dst[0:], y)
	binary.LittleEndian.PutUint32(dst[4:], x)
}

// BlockSize reports the cipher block size, completing cipher.Block.
func (c *Cipher) BlockSize() int { return BlockSize }

var _ cipher.Block = (*Cipher)(nil)
