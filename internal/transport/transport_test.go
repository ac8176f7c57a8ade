package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{0x41},
		[]byte("hello frames"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var stream bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&stream, p, 0); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&stream, 0)
		if err != nil {
			t.Fatalf("ReadFrame[%d]: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&stream, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadFrame on drained stream: %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var stream bytes.Buffer
	// A hostile 1 GiB length prefix must be rejected before allocation.
	stream.Write([]byte{0x00, 0x00, 0x00, 0x40})
	if _, err := ReadFrame(&stream, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: %v, want ErrFrameTooLarge", err)
	}

	if err := WriteFrame(io.Discard, bytes.Repeat([]byte{1}, 32), 16); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsEmptyAndTruncated(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), 0); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("zero-length frame: %v, want ErrEmptyFrame", err)
	}
	if err := WriteFrame(io.Discard, nil, 0); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("zero-length write: %v, want ErrEmptyFrame", err)
	}
	// Truncated prefix.
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0}), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated prefix: %v, want io.ErrUnexpectedEOF", err)
	}
	// Prefix promises 8 bytes, stream holds 3.
	if _, err := ReadFrame(bytes.NewReader([]byte{8, 0, 0, 0, 1, 2, 3}), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestPipeConnExchange(t *testing.T) {
	a, b := Pipe(Options{})
	defer a.Close()
	defer b.Close()

	done := make(chan error, 1)
	go func() {
		frame, err := b.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- b.Send(append([]byte("echo:"), frame...))
	}()
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(reply) != "echo:ping" {
		t.Fatalf("reply = %q", reply)
	}
	if err := <-done; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

func TestRecvTimeoutIsIdleTick(t *testing.T) {
	a, b := Pipe(Options{ReadTimeout: 20 * time.Millisecond})
	defer a.Close()
	defer b.Close()

	_, err := a.Recv()
	if err == nil || !IsTimeout(err) {
		t.Fatalf("Recv on idle pipe: %v, want timeout", err)
	}

	// The connection must remain usable after a timeout.
	go func() { b.Send([]byte("late")) }() //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for {
		frame, err := a.Recv()
		if err == nil {
			if string(frame) != "late" {
				t.Fatalf("frame = %q", frame)
			}
			return
		}
		if !IsTimeout(err) || time.Now().After(deadline) {
			t.Fatalf("Recv after timeout: %v", err)
		}
	}
}

// TestRecvTimeoutMidFrameConsumesNothing pins the stream's framing across
// a read timeout that lands inside a frame: the agent treats timeouts as
// heartbeat ticks, so a frame that straddles a tick must still arrive
// whole. Bytes used to be consumed up to the deadline, and every later
// Recv parsed payload bytes as a length prefix. A frame that fits the
// read buffer, one larger than it and one larger than the grown buffer
// are covered, split inside the prefix and inside the payload. The writer
// sends the rest of the frame only once a Recv has timed out with its
// head buffered, so a timeout lands inside the frame by construction.
func TestRecvTimeoutMidFrameConsumesNothing(t *testing.T) {
	for _, size := range []int{100, 3 * readBufSize, maxReadBuf + 100} {
		for _, split := range []int{2, prefixSize + 50} {
			t.Run(fmt.Sprintf("payload=%d/split=%d", size, split), func(t *testing.T) {
				first := make([]byte, size)
				for i := range first {
					first[i] = byte(i * 7)
				}
				wire := AppendFrame(AppendFrame(nil, first), []byte("next"))

				an, bn := net.Pipe()
				defer an.Close()
				rx := NewConn(bn, Options{ReadTimeout: 20 * time.Millisecond})
				defer rx.Close()
				wrote := make(chan error, 1)
				timedOut := make(chan struct{})
				go func() {
					if _, err := an.Write(wire[:split]); err != nil {
						wrote <- err
						return
					}
					<-timedOut
					_, err := an.Write(wire[split:])
					wrote <- err
				}()
				inside := false
				defer func() {
					if !inside {
						close(timedOut) // a test that failed first releases the writer
					}
				}()

				timeouts := 0
				recv := func() []byte {
					t.Helper()
					for {
						frame, err := rx.Recv()
						if err == nil {
							return frame
						}
						if !IsTimeout(err) || timeouts > 100 {
							t.Fatalf("Recv after %d timeouts: %v", timeouts, err)
						}
						timeouts++
						// The head of the frame is buffered: this timeout
						// landed inside it.
						if !inside && rx.r < rx.w {
							inside = true
							close(timedOut)
						}
					}
				}
				if got := recv(); !bytes.Equal(got, first) {
					t.Fatalf("straddling frame: got %d bytes, want %d intact", len(got), len(first))
				}
				if got := recv(); string(got) != "next" {
					t.Fatalf("frame after the straddling one = %q, want %q", got, "next")
				}
				if err := <-wrote; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// deadlineConn counts the read deadlines armed on a net.Conn.
type deadlineConn struct {
	net.Conn
	armed int
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.armed++
	return c.Conn.SetReadDeadline(t)
}

// batchFrames returns the frames of one RecvBatch as strings.
func batchFrames(t *testing.T, c *Conn) []string {
	t.Helper()
	batch, err := c.RecvBatch()
	if err != nil {
		t.Fatal(err)
	}
	var frames []string
	for frame, ok := batch.Next(); ok; frame, ok = batch.Next() {
		frames = append(frames, string(frame))
	}
	return frames
}

// TestRecvArmsDeadlineOnlyToWait: the receive that has to wait for bytes
// arms exactly one read deadline, however many reads the wait takes, and
// frames already whole in the read buffer are returned without arming
// one. A batch holds every whole frame buffered when it returns.
func TestRecvArmsDeadlineOnlyToWait(t *testing.T) {
	an, bn := net.Pipe()
	defer an.Close()
	dc := &deadlineConn{Conn: bn}
	rx := NewConn(dc, Options{ReadTimeout: 5 * time.Second})
	defer rx.Close()

	var wire []byte
	for _, p := range []string{"one", "two", "three"} {
		wire = AppendFrame(wire, []byte(p))
	}
	go an.Write(wire) //nolint:errcheck
	frame, err := rx.RecvShared()
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != "one" || dc.armed != 1 {
		t.Fatalf("first frame = %q with %d read deadlines armed, want %q with 1", frame, dc.armed, "one")
	}
	if got := batchFrames(t, rx); fmt.Sprint(got) != "[two three]" || dc.armed != 1 {
		t.Fatalf("buffered batch = %q with %d read deadlines armed, want [two three] with 1", got, dc.armed)
	}

	// A frame split over two writes takes two reads and one arm.
	split := AppendFrame(nil, []byte("four"))
	go func() {
		an.Write(split[:3]) //nolint:errcheck
		an.Write(split[3:]) //nolint:errcheck
	}()
	if got := batchFrames(t, rx); fmt.Sprint(got) != "[four]" || dc.armed != 2 {
		t.Fatalf("waited batch = %q with %d read deadlines armed in all, want [four] with 2", got, dc.armed)
	}
}

// TestRecvBatchKeepsPartialFrame: a frame whose tail is still on the wire
// ends the batch before it, stays buffered, and arrives whole at the
// front of the next batch.
func TestRecvBatchKeepsPartialFrame(t *testing.T) {
	an, bn := net.Pipe()
	defer an.Close()
	rx := NewConn(bn, Options{ReadTimeout: 5 * time.Second})
	defer rx.Close()

	wire := AppendFrame(AppendFrame(AppendFrame(nil, []byte("one")), []byte("two")), []byte("three"))
	cut := len(wire) - 2
	go func() {
		an.Write(wire[:cut]) //nolint:errcheck
		an.Write(wire[cut:]) //nolint:errcheck
	}()
	if got := batchFrames(t, rx); fmt.Sprint(got) != "[one two]" {
		t.Fatalf("first batch = %q, want [one two]", got)
	}
	if got := batchFrames(t, rx); fmt.Sprint(got) != "[three]" {
		t.Fatalf("second batch = %q, want [three]", got)
	}
}

// TestRecvBatchBadPrefixBehindFrames: a bad length prefix behind whole
// frames ends the batch. The whole frames come back first and intact, and
// every later receive reports the bad prefix: nothing is dropped, and no
// payload byte is ever read as a prefix.
func TestRecvBatchBadPrefixBehindFrames(t *testing.T) {
	for name, tc := range map[string]struct {
		prefix []byte
		want   error
	}{
		"too large": {[]byte{0xFF, 0xFF, 0xFF, 0x7F}, ErrFrameTooLarge},
		"empty":     {[]byte{0, 0, 0, 0}, ErrEmptyFrame},
	} {
		t.Run(name, func(t *testing.T) {
			wire := AppendFrame(AppendFrame(nil, []byte("one")), []byte("two"))
			wire = append(append(wire, tc.prefix...), "payload"...)
			c := NewConn(streamConn{bytes.NewReader(wire)}, Options{})
			if got := batchFrames(t, c); fmt.Sprint(got) != "[one two]" {
				t.Fatalf("batch = %q, want [one two]", got)
			}
			for i := 0; i < 2; i++ {
				if _, err := c.RecvBatch(); !errors.Is(err, tc.want) {
					t.Fatalf("receive %d after the batch: %v, want %v", i+1, err, tc.want)
				}
			}
			if _, err := c.Recv(); !errors.Is(err, tc.want) {
				t.Fatalf("Recv after the batch: %v, want %v", err, tc.want)
			}
		})
	}
}

// TestRecvBatchFrameLargerThanReadBuffer: a frame larger than the read
// buffer grows it and arrives whole, as does the frame written behind it.
func TestRecvBatchFrameLargerThanReadBuffer(t *testing.T) {
	an, bn := net.Pipe()
	defer an.Close()
	rx := NewConn(bn, Options{ReadTimeout: 5 * time.Second})
	defer rx.Close()

	big := make([]byte, 3*readBufSize+5)
	for i := range big {
		big[i] = byte(i * 7)
	}
	go an.Write(AppendFrame(AppendFrame(nil, big), []byte("after"))) //nolint:errcheck
	var frames [][]byte
	for len(frames) < 2 {
		batch, err := rx.RecvBatch()
		if err != nil {
			t.Fatal(err)
		}
		for frame, ok := batch.Next(); ok; frame, ok = batch.Next() {
			frames = append(frames, append([]byte(nil), frame...))
		}
	}
	if len(frames) != 2 || !bytes.Equal(frames[0], big) || string(frames[1]) != "after" {
		t.Fatalf("got %d frames (first %d bytes), want the %d-byte frame intact and %q",
			len(frames), len(frames[0]), len(big), "after")
	}
}

// TestReadBufferKeepsItsSizeAtHonestRates: a peer that writes one small
// frame at a time never fills the read buffer, so it stays at readBufSize.
func TestReadBufferKeepsItsSizeAtHonestRates(t *testing.T) {
	a, b := Pipe(Options{ReadTimeout: 5 * time.Second})
	defer a.Close()
	defer b.Close()

	const frames = 1000
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := a.Send([]byte(fmt.Sprintf("frame-%d", i))); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < frames; i++ {
		frame, err := b.RecvShared()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("frame-%d", i); string(frame) != want {
			t.Fatalf("frame %d = %q, want %q", i, frame, want)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if cap(b.in) != readBufSize {
		t.Fatalf("read buffer grew to %d bytes at one frame per write, want %d", cap(b.in), readBufSize)
	}
}

// TestReadBufferGrowsUnderAFlood: the first read of a 256 KiB write of
// small frames fills the read buffer, so the buffer grows once, to
// maxReadBuf, and the rest arrives in reads of up to maxReadBuf bytes,
// every frame intact and in order.
func TestReadBufferGrowsUnderAFlood(t *testing.T) {
	const size = 256 << 10
	floodFrame := func(i int) []byte {
		p := bytes.Repeat([]byte{byte(i)}, 16)
		binary.LittleEndian.PutUint32(p, uint32(i))
		return p
	}
	frames := size / (prefixSize + 16)
	var wire []byte
	for i := 0; i < frames; i++ {
		wire = AppendFrame(wire, floodFrame(i))
	}
	cc := &chunkConn{r: bytes.NewReader(wire)}
	c := NewConn(cc, Options{})

	sizes := []int{cap(c.in)}
	for n := 0; n < frames; {
		batch, err := c.RecvBatch()
		if err != nil {
			t.Fatalf("after %d frames: %v", n, err)
		}
		for frame, ok := batch.Next(); ok; frame, ok = batch.Next() {
			if !bytes.Equal(frame, floodFrame(n)) {
				t.Fatalf("frame %d = % x, want % x", n, frame, floodFrame(n))
			}
			n++
		}
		if cap(c.in) != sizes[len(sizes)-1] {
			sizes = append(sizes, cap(c.in))
		}
	}
	if want := []int{readBufSize, maxReadBuf}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("read buffer sizes %v, want %v", sizes, want)
	}
	if limit := size/maxReadBuf + 2; cc.reads > limit {
		t.Fatalf("%d reads for a %d-byte write, want at most %d", cc.reads, len(wire), limit)
	}
}
