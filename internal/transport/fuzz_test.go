package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkConn is a net.Conn whose reads hand out the stream at most chunk
// bytes at a time, then io.EOF: how a socket can split frames anywhere.
type chunkConn struct {
	sinkConn
	r     *bytes.Reader
	chunk int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

// sameErrorClass reports whether two read errors mean the same thing to a
// caller: clean end, truncation, or the same framing violation.
func sameErrorClass(a, b error) bool {
	for _, target := range []error{io.EOF, io.ErrUnexpectedEOF, ErrEmptyFrame, ErrFrameTooLarge} {
		if errors.Is(a, target) != errors.Is(b, target) {
			return false
		}
	}
	return (a == nil) == (b == nil)
}

// FuzzReadFrame: the codec must never panic or over-allocate on malformed
// length prefixes, truncated frames or oversized frames, and any frame it
// accepts must re-encode to a prefix of the input (framing is a bijection
// on the accepted stream). Conn's buffered read path must agree with
// ReadFrame frame by frame, however the stream is split into reads.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, []byte{0x41, 0x52, 0x01}), uint8(0))
	f.Add(AppendFrame(nil, bytes.Repeat([]byte{0xEE}, 512)), uint8(7))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))                                          // zero length
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint8(2))                              // absurd length
	f.Add([]byte{5, 0, 0, 0, 1, 2}, uint8(3))                                    // truncated payload
	f.Add([]byte{1, 0}, uint8(0))                                                // truncated prefix
	f.Add(AppendFrame(AppendFrame(nil, make([]byte, 1)), []byte{9}), uint8(255)) // minimal frames
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		const maxFrame = 1 << 16
		r := bytes.NewReader(data)
		c := NewConn(&chunkConn{r: bytes.NewReader(data), chunk: int(chunk)%64 + 1}, Options{MaxFrame: maxFrame})
		consumed := 0
		for {
			payload, err := ReadFrame(r, maxFrame)
			got, cerr := c.Recv()
			if !sameErrorClass(err, cerr) || !bytes.Equal(payload, got) {
				t.Fatalf("after %d bytes: ReadFrame = %d bytes, %v; Conn.Recv = %d bytes, %v",
					consumed, len(payload), err, len(got), cerr)
			}
			if err != nil {
				return
			}
			if len(payload) == 0 || len(payload) > maxFrame {
				t.Fatalf("accepted out-of-bounds payload length %d", len(payload))
			}
			reenc := AppendFrame(nil, payload)
			if !bytes.Equal(reenc, data[consumed:consumed+len(reenc)]) {
				t.Fatalf("accepted frame does not round trip: % x", data)
			}
			consumed += len(reenc)
		}
	})
}
