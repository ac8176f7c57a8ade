// Package cbcmac computes CBC-MAC tags over any crypto/cipher.Block: the
// AES-128 and Speck 64/128 request-authentication schemes of the paper's
// §4.1 are the same construction over two block ciphers.
package cbcmac

import (
	"crypto/cipher"
	"crypto/subtle"
)

// Sum writes the CBC-MAC of msg under b into tag, which must hold one
// block: a zero IV, then msg padded with 0x80 and zeros to a block
// boundary. An aligned message still gains a full padding block, which
// keeps the padding injective. CBC-MAC is only secure for fixed-length or
// prefix-free messages; the attestation protocol's fixed-size requests
// satisfy that. Sum allocates nothing, so a caller that holds tag beside
// b keeps the tag check allocation-free.
func Sum(b cipher.Block, tag, msg []byte) {
	n := b.BlockSize()
	tag = tag[:n]
	clear(tag)
	for ; len(msg) >= n; msg = msg[n:] {
		subtle.XORBytes(tag, tag, msg[:n])
		b.Encrypt(tag, tag)
	}
	subtle.XORBytes(tag, tag, msg)
	tag[len(msg)] ^= 0x80
	b.Encrypt(tag, tag)
}
