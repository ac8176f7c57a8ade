// Package transport carries protocol frames over real byte streams. It is
// the seam between the in-process simulation (internal/channel delivers
// whole frames on the event loop) and the networked deployment
// (internal/server and internal/agent exchange the same frames over
// net.Conn): a minimal length-prefixed codec with strict limits, plus a
// connection wrapper that applies read/write deadlines so a stalled or
// malicious peer cannot park a goroutine forever.
//
// Wire format: each frame is a 4-byte little-endian payload length
// followed by the payload bytes. The payload is a protocol frame
// (attestation request/response, service command/response, session hello,
// stats report) exactly as produced by internal/protocol's encoders — the
// codec adds framing only, so a frame captured on the socket is
// byte-identical to the frame the in-process channel would deliver.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

const (
	// prefixSize is the length-prefix width in bytes.
	prefixSize = 4

	// DefaultMaxFrame bounds a frame payload. It must admit the largest
	// legitimate protocol frame (a service command: 38-byte header +
	// 64 KiB body + 64-byte tag) with room to spare, while keeping a
	// malicious length prefix from provoking a large allocation.
	DefaultMaxFrame = 128 << 10
)

// Codec errors. ReadFrame's errors wrap these so callers can distinguish
// protocol abuse (close the connection) from clean shutdown (io.EOF).
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	ErrEmptyFrame    = errors.New("transport: zero-length frame")
)

// AppendFrame appends the encoded frame (prefix + payload) to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var prefix [prefixSize]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(payload)))
	dst = append(dst, prefix[:]...)
	return append(dst, payload...)
}

// framePool recycles whole-frame scratch buffers for the standalone
// WriteFrame path. Pooling *[]byte (not []byte) keeps Put itself from
// allocating a slice-header box.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// WriteFrame writes one frame to w as a single Write call (so one frame
// maps to one segment on buffered transports and one synchronous transfer
// on net.Pipe). The prefix+payload image is assembled in a pooled scratch
// buffer, so steady-state writes do not allocate; payload is only read and
// never retained past the call.
func WriteFrame(w io.Writer, payload []byte, maxFrame uint32) error {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(payload) == 0 {
		return ErrEmptyFrame
	}
	if uint32(len(payload)) > maxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, len(payload), maxFrame)
	}
	bp := framePool.Get().(*[]byte)
	buf := AppendFrame((*bp)[:0], payload)
	_, err := w.Write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// ReadFrame reads one frame from r, allocating a fresh payload the caller
// owns outright. Hot paths that can honour the aliasing contract should
// use ReadFrameInto (or Conn.RecvShared) instead.
func ReadFrame(r io.Reader, maxFrame uint32) ([]byte, error) {
	return ReadFrameInto(r, nil, maxFrame)
}

// ReadFrameInto reads one frame from r, reusing scratch's backing array
// for the payload when its capacity suffices (a larger frame allocates a
// bigger slice, which the caller should adopt as the next scratch). The
// length prefix is validated against maxFrame before any payload
// allocation, so a hostile prefix cannot force a large allocation. A
// truncated prefix or payload yields io.ErrUnexpectedEOF (io.EOF only when
// the stream ends cleanly between frames).
//
// Ownership: the returned slice aliases scratch; it is the caller's until
// the caller reuses scratch for the next frame. Anything that must outlive
// that point has to be copied out first.
func ReadFrameInto(r io.Reader, scratch []byte, maxFrame uint32) ([]byte, error) {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	// Read the prefix through scratch when possible: a stack-local prefix
	// array would escape through the io.Reader interface and cost an
	// allocation per frame.
	var prefix []byte
	if cap(scratch) >= prefixSize {
		prefix = scratch[:prefixSize]
	} else {
		prefix = make([]byte, prefixSize)
	}
	if _, err := io.ReadFull(r, prefix); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTruncatedPrefix
		}
		return nil, err
	}
	n, err := payloadLen(prefix, maxFrame)
	if err != nil {
		return nil, err
	}
	payload := sized(scratch, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTruncatedPayload
		}
		return nil, err
	}
	return payload, nil
}

// Truncation errors, shared by ReadFrameInto and Conn so both read paths
// report a stream that died mid-frame identically.
var (
	errTruncatedPrefix  = fmt.Errorf("transport: truncated length prefix: %w", io.ErrUnexpectedEOF)
	errTruncatedPayload = fmt.Errorf("transport: truncated frame payload: %w", io.ErrUnexpectedEOF)
)

// payloadLen decodes and validates a length prefix. It is the one check
// every read path applies before sizing anything by the prefix.
func payloadLen(prefix []byte, maxFrame uint32) (int, error) {
	n := binary.LittleEndian.Uint32(prefix)
	if n == 0 {
		return 0, ErrEmptyFrame
	}
	if n > maxFrame {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	return int(n), nil
}

// sized returns scratch resliced to n bytes, or a fresh n-byte slice when
// scratch is too small.
func sized(scratch []byte, n int) []byte {
	if cap(scratch) >= n {
		return scratch[:n]
	}
	return make([]byte, n)
}

// Options configure a Conn.
type Options struct {
	// MaxFrame bounds payload size in both directions (0 = DefaultMaxFrame).
	MaxFrame uint32
	// ReadTimeout bounds every wait for bytes (0 = no deadline). A receive
	// whose frame is already whole in the read buffer cannot block and
	// arms nothing; any other receive arms the deadline before its first
	// read from the connection. A receive that times out returns a
	// net.Error with Timeout() == true and consumes nothing (a partly
	// received frame stays buffered), so callers can treat timeouts as
	// idle ticks.
	ReadTimeout time.Duration
	// WriteTimeout bounds one Send call (0 = no deadline).
	WriteTimeout time.Duration
	// Metrics, when non-nil, receives per-frame byte and error accounting
	// (see NewMetrics). Recording allocates nothing, preserving the codec's
	// zero-allocation contract; the standalone ReadFrame/WriteFrame
	// helpers never record. Received frames and bytes are counted on the
	// Conn and published whenever the read buffer holds no whole frame
	// (so the next receive may wait; RecvBatch always leaves it so) and
	// when the Conn closes: exact while the reader waits, at most one read
	// behind while it is busy.
	Metrics *Metrics
}

// A Conn's read buffer starts at readBufSize bytes: one read from the
// connection takes in up to that many, however many frames they hold. A
// read that fills every free byte of the buffer shows the peer is ahead
// of the reader, so from the next read on the buffer holds at least
// maxReadBuf bytes and a flood of small frames costs 16 times fewer
// reads. An honest session reads one small frame per read and keeps
// readBufSize. The buffer also grows to hold a frame larger than it
// (whose first read fills it too), and never shrinks, so a connection
// holds at most max(maxReadBuf, MaxFrame+4) bytes.
const (
	readBufSize = 4 << 10
	maxReadBuf  = 64 << 10
)

// Conn frames payloads over a net.Conn. Sending and receiving are each
// safe for one concurrent caller (they serialise internally), mirroring
// net.Conn's one-reader/one-writer contract.
type Conn struct {
	nc  net.Conn
	opt Options

	rmu  sync.Mutex
	in   []byte // read buffer: in[r:w] is read off nc but not yet returned
	r, w int

	// framesIn and bytesIn count what the receives returned since the last
	// publish to Options.Metrics (guarded by rmu).
	framesIn, bytesIn uint64

	wmu  sync.Mutex
	wbuf []byte // Send's reusable prefix+payload image (guarded by wmu)
}

// NewConn wraps nc. The caller must not read from or write to nc directly
// afterwards.
func NewConn(nc net.Conn, opt Options) *Conn {
	if opt.MaxFrame == 0 {
		opt.MaxFrame = DefaultMaxFrame
	}
	return &Conn{nc: nc, opt: opt, in: make([]byte, readBufSize)}
}

// Pipe returns both ends of an in-memory, synchronous connection (net.Pipe)
// wrapped as frame connections — the deterministic loopback used by tests
// to exercise the exact socket code path without a network stack.
func Pipe(opt Options) (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a, opt), NewConn(b, opt)
}

// Send writes one frame, applying the write deadline. The prefix+payload
// image is assembled in a per-connection scratch buffer (still one Write
// call, so frame-per-segment behaviour is unchanged) and payload is never
// retained — the caller may reuse it immediately.
func (c *Conn) Send(payload []byte) error {
	err := c.send(payload)
	c.opt.Metrics.sendDone(len(payload), err)
	return err
}

func (c *Conn) send(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.opt.WriteTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.opt.WriteTimeout)); err != nil {
			return err
		}
	}
	if len(payload) == 0 {
		return ErrEmptyFrame
	}
	if uint32(len(payload)) > c.opt.MaxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, len(payload), c.opt.MaxFrame)
	}
	c.wbuf = AppendFrame(c.wbuf[:0], payload)
	_, err := c.nc.Write(c.wbuf)
	return err
}

// Recv reads one frame. The returned payload is freshly allocated and
// owned by the caller outright; loops that can honour the aliasing
// contract should prefer RecvShared.
//
// A frame already whole in the read buffer is returned without touching
// the connection or its deadline. Otherwise Recv arms the read deadline
// (Options.ReadTimeout) and reads until the frame is whole; if the
// deadline expires first it returns the timeout and consumes nothing, so
// the next Recv resumes the same frame.
func (c *Conn) Recv() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	frame, err := c.recvLocked()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), frame...), nil
}

// RecvShared reads one frame and returns it where it lies in the
// connection's read buffer. The returned slice is valid only until the
// next receive on this connection — a caller that retains the frame (or
// hands it to anything that might) must copy it first. This is the
// zero-allocation read path for loops that take one frame at a time;
// deadlines and timeouts behave as for Recv.
func (c *Conn) RecvShared() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.recvLocked()
}

// Batch is the run of whole frames one RecvBatch took from the read
// buffer, in stream order. Its frames lie in the read buffer and are
// valid only until the next receive on the Conn.
type Batch struct {
	rest []byte // the frames Next has not returned, length prefixes included
}

// Next returns the batch's next frame, or false once it has returned
// them all.
func (b *Batch) Next() ([]byte, bool) {
	if len(b.rest) == 0 {
		return nil, false
	}
	end := prefixSize + int(binary.LittleEndian.Uint32(b.rest))
	frame := b.rest[prefixSize:end:end]
	b.rest = b.rest[end:]
	return frame, true
}

// RecvBatch takes every whole frame in the read buffer as one batch of at
// least one frame. With no whole frame buffered it waits exactly as Recv
// does: it arms the read deadline once, before its first read from the
// connection, and a timeout consumes nothing. Under one hold of the read
// lock it then checks the length prefixes of the whole frames behind the
// first in one pass, and counts and publishes the batch once. A bad
// length prefix behind whole frames ends the batch, and the next receive
// returns it as its error. The frames are returned where they lie in the
// read buffer and are valid only until the next receive, as RecvShared's
// are; no caller code runs while the read lock is held.
func (c *Conn) RecvBatch() (Batch, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	need, err := c.wait()
	if err != nil {
		c.opt.Metrics.recvFailed(err)
		c.publishLocked()
		return Batch{}, err
	}
	buf, start, end, frames := c.in[:c.w], c.r, c.r+need, uint64(1)
	for len(buf)-end >= prefixSize {
		// The checks payloadLen makes; a bad prefix behind the frame is
		// the next receive's error.
		n := binary.LittleEndian.Uint32(buf[end:])
		if n == 0 || n > c.opt.MaxFrame || len(buf)-end-prefixSize < int(n) {
			break
		}
		end += prefixSize + int(n)
		frames++
	}
	c.r = end
	c.framesIn += frames
	c.bytesIn += uint64(end - start)
	c.publishLocked()
	return Batch{rest: buf[start:end:end]}, nil
}

// recvLocked returns the next frame where it lies in the read buffer and
// publishes the receive counts once no whole frame is left behind it.
func (c *Conn) recvLocked() ([]byte, error) {
	need, err := c.wait()
	if err != nil {
		c.opt.Metrics.recvFailed(err)
		c.publishLocked()
		return nil, err
	}
	at := c.r
	c.r += need
	c.framesIn++
	c.bytesIn += uint64(need)
	if _, more, _ := c.head(); !more {
		c.publishLocked()
	}
	return c.in[at+prefixSize : at+need : at+need], nil
}

// publishLocked adds the receive counts to Options.Metrics and zeroes
// them. The caller holds rmu.
func (c *Conn) publishLocked() {
	if c.framesIn == 0 {
		return
	}
	c.opt.Metrics.recvDone(c.framesIn, c.bytesIn)
	c.framesIn, c.bytesIn = 0, 0
}

// wait returns the size, prefix included, of the whole frame at the front
// of the read buffer, reading from the connection until one is whole.
// Bytes leave the read buffer only when a caller consumes a whole frame.
func (c *Conn) wait() (int, error) {
	waited := false
	for {
		need, whole, err := c.head()
		if err != nil {
			return 0, err
		}
		if whole {
			return need, nil
		}
		if !waited {
			// This receive has to wait for bytes: arm the deadline once,
			// before its first read.
			waited = true
			if c.opt.ReadTimeout > 0 {
				if err := c.nc.SetReadDeadline(time.Now().Add(c.opt.ReadTimeout)); err != nil {
					return 0, err
				}
			}
		}
		if err := c.fill(need); err != nil {
			have := c.w - c.r
			switch {
			case !errors.Is(err, io.EOF) || have == 0:
				return 0, err
			case have < prefixSize:
				return 0, errTruncatedPrefix
			default:
				return 0, errTruncatedPayload
			}
		}
	}
}

// head parses the frame at the front of the read buffer: the bytes it
// occupies, prefix included (prefixSize while the prefix itself is
// incomplete), and whether they are all buffered.
func (c *Conn) head() (need int, whole bool, err error) {
	have := c.w - c.r
	if have < prefixSize {
		return prefixSize, false, nil
	}
	n, err := payloadLen(c.in[c.r:], c.opt.MaxFrame)
	if err != nil {
		return 0, false, err
	}
	return prefixSize + n, have >= prefixSize+n, nil
}

// fill makes one read from the connection into the read buffer. It first
// moves the unread bytes to the front, so every read gets all the room the
// buffer has. It grows the buffer to maxReadBuf when the last read filled
// it to its end (see readBufSize), and to need bytes when the frame being
// assembled (need bytes, prefix included) does not fit, moving the unread
// bytes and growing in one copy.
func (c *Conn) fill(need int) error {
	size := max(len(c.in), need)
	if c.w == len(c.in) {
		size = max(size, maxReadBuf)
	}
	if size > len(c.in) {
		grown := make([]byte, size)
		c.w = copy(grown, c.in[c.r:c.w])
		c.in, c.r = grown, 0
	} else if c.r > 0 {
		c.w = copy(c.in, c.in[c.r:c.w])
		c.r = 0
	}
	n, err := c.nc.Read(c.in[c.w:])
	c.w += n
	if n > 0 {
		return nil // an error that came with bytes recurs on the next read
	}
	return err
}

// SetReadTimeout replaces the read deadline applied to subsequent waits.
// It lets a server hold the first frame of a connection to a short
// hello deadline and then relax to the steady-state read timeout once
// the peer has proven it speaks the protocol. It must not be called
// concurrently with a receive (it serialises on the read lock, so a call
// made between receives is safe).
func (c *Conn) SetReadTimeout(d time.Duration) {
	c.rmu.Lock()
	c.opt.ReadTimeout = d
	c.rmu.Unlock()
}

// Close closes the underlying connection, unblocking any pending send or
// receive, then waits for a receive in progress to return and publishes
// the receive counts not yet published.
func (c *Conn) Close() error {
	err := c.nc.Close()
	c.rmu.Lock()
	c.publishLocked()
	c.rmu.Unlock()
	return err
}

// LocalAddr reports the underlying connection's local address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr reports the underlying connection's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// IsTimeout reports whether err is a deadline expiry — an idle tick for
// loops that use ReadTimeout as a heartbeat interval.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
