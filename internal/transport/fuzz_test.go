package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkConn is a net.Conn whose reads hand out the stream at most chunk
// bytes at a time (any number when chunk is 0), then io.EOF: how a socket
// can split frames anywhere, or keep a reader's buffer full. It counts
// the reads made on it.
type chunkConn struct {
	sinkConn
	r     *bytes.Reader
	chunk int
	reads int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	c.reads++
	if c.chunk > 0 && len(p) > c.chunk {
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
// on the accepted stream). Conn's buffered read paths, one frame at a time
// (Recv) and a batch at a time (RecvBatch), must agree with ReadFrame frame
// by frame and in the error that ends the stream, however the stream is
// split into reads. The low six bits of chunk bound each read. Its top bit
// leaves reads unlimited, so a read can fill the read buffer and make it
// grow; the bit below lowers maxFrame under the buffer's size, so a frame
// over maxFrame can lie whole behind others.
func FuzzReadFrame(f *testing.F) {
	var small []byte // more than readBufSize of small frames
	for i := 0; len(small) <= readBufSize+1024; i++ {
		small = AppendFrame(small, bytes.Repeat([]byte{byte(i)}, 1+i%13))
	}
	f.Add(AppendFrame(nil, []byte{0x41, 0x52, 0x01}), uint8(0))
	f.Add(AppendFrame(nil, bytes.Repeat([]byte{0xEE}, 512)), uint8(7))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))                                          // zero length
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint8(2))                              // absurd length
	f.Add([]byte{5, 0, 0, 0, 1, 2}, uint8(3))                                    // truncated payload
	f.Add([]byte{1, 0}, uint8(0))                                                // truncated prefix
	f.Add(AppendFrame(AppendFrame(nil, make([]byte, 1)), []byte{9}), uint8(255)) // minimal frames
	f.Add(append(AppendFrame(nil, []byte{7}), 0, 0, 0, 0), uint8(63))            // bad prefix behind a frame
	// A read fills the buffer; a frame over the lowered maxFrame lies whole
	// behind another.
	f.Add(small, uint8(128))
	f.Add(AppendFrame(AppendFrame(nil, []byte{1}), make([]byte, 300)), uint8(192))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		maxFrame, limit := uint32(1<<16), int(chunk)%64+1
		if chunk&64 != 0 {
			maxFrame = 1 << 8
		}
		if chunk&128 != 0 {
			limit = 0
		}
		chunked := func() *Conn {
			return NewConn(&chunkConn{r: bytes.NewReader(data), chunk: limit}, Options{MaxFrame: maxFrame})
		}
		r := bytes.NewReader(data)
		c, bc := chunked(), chunked()
		var batch Batch
		recvBatched := func() ([]byte, error) {
			if frame, ok := batch.Next(); ok {
				return frame, nil
			}
			var err error
			if batch, err = bc.RecvBatch(); err != nil {
				return nil, err
			}
			frame, _ := batch.Next()
			return frame, nil
		}
		consumed := 0
		for {
			payload, err := ReadFrame(r, maxFrame)
			got, cerr := c.Recv()
			batched, berr := recvBatched()
			if !sameErrorClass(err, cerr) || !bytes.Equal(payload, got) {
				t.Fatalf("after %d bytes: ReadFrame = %d bytes, %v; Conn.Recv = %d bytes, %v",
					consumed, len(payload), err, len(got), cerr)
			}
			if !sameErrorClass(err, berr) || !bytes.Equal(payload, batched) {
				t.Fatalf("after %d bytes: ReadFrame = %d bytes, %v; Conn.RecvBatch = %d bytes, %v",
					consumed, len(payload), err, len(batched), berr)
			}
			if err != nil {
				return
			}
			if len(payload) == 0 || len(payload) > int(maxFrame) {
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
