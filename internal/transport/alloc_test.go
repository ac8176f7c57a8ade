package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"proverattest/internal/obs"
)

// sinkConn is a net.Conn that swallows writes and reports EOF on reads —
// the stub under the zero-allocation Send assertions, so no real socket
// (and no kernel-side jitter) is involved.
type sinkConn struct{}

func (sinkConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (sinkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (sinkConn) Close() error                     { return nil }
func (sinkConn) LocalAddr() net.Addr              { return nil }
func (sinkConn) RemoteAddr() net.Addr             { return nil }
func (sinkConn) SetDeadline(time.Time) error      { return nil }
func (sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (sinkConn) SetWriteDeadline(time.Time) error { return nil }

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm up: first call may grow a scratch buffer
	if n := testing.AllocsPerRun(1000, fn); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

// TestSendZeroAllocs locks in the pooled write path: a steady-state frame
// write through a Conn builds the prefix+payload image in the connection's
// reused scratch and allocates nothing.
func TestSendZeroAllocs(t *testing.T) {
	c := NewConn(sinkConn{}, Options{})
	payload := bytes.Repeat([]byte{0xAB}, 64)
	assertZeroAllocs(t, "Conn.Send", func() {
		if err := c.Send(payload); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteFrameZeroAllocs covers the standalone pooled WriteFrame.
func TestWriteFrameZeroAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xCD}, 64)
	assertZeroAllocs(t, "WriteFrame", func() {
		if err := WriteFrame(io.Discard, payload, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadFrameIntoZeroAllocs locks in the scratch-reuse read path,
// including the prefix read (a naive stack prefix would escape through the
// io.Reader interface and cost one allocation per frame).
func TestReadFrameIntoZeroAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xEF}, 64)
	stream := AppendFrame(nil, payload)
	r := bytes.NewReader(stream)
	scratch := make([]byte, 0, 256)
	assertZeroAllocs(t, "ReadFrameInto", func() {
		r.Reset(stream)
		frame, err := ReadFrameInto(r, scratch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != len(payload) {
			t.Fatalf("frame length %d, want %d", len(frame), len(payload))
		}
	})
}

// TestReadFrameIntoGrowsAndAliases pins the ownership contract: a frame
// larger than the scratch returns a freshly grown slice the caller adopts,
// and a following smaller frame reuses it in place.
func TestReadFrameIntoGrowsAndAliases(t *testing.T) {
	big := bytes.Repeat([]byte{1}, 512)
	small := []byte{2, 3, 4}
	stream := AppendFrame(AppendFrame(nil, big), small)
	r := bytes.NewReader(stream)

	scratch := make([]byte, 0, 8)
	frame, err := ReadFrameInto(r, scratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != len(big) || cap(frame) < len(big) {
		t.Fatalf("grown frame len=%d cap=%d", len(frame), cap(frame))
	}
	adopted := frame
	frame, err = ReadFrameInto(r, adopted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, small) {
		t.Fatalf("second frame = %v, want %v", frame, small)
	}
	if &frame[0] != &adopted[0] {
		t.Fatal("second frame did not reuse the adopted scratch")
	}
}

// TestRecvBatchZeroAllocs pins the batch receive of a 4096-frame write at
// zero allocations, counts published included. The write is larger than
// the grown read buffer, so once the warm-up has grown the buffer the
// frames still arrive in several batches, each after the first led by the
// frame the read before it cut in two.
func TestRecvBatchZeroAllocs(t *testing.T) {
	const frames = 4096
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = AppendFrame(stream, bytes.Repeat([]byte{byte(i)}, 16))
	}
	if len(stream) <= maxReadBuf {
		t.Fatalf("a %d-byte write fits one read; the test needs more", len(stream))
	}
	m := NewMetrics(obs.New())
	r := bytes.NewReader(stream)
	c := NewConn(streamConn{r}, Options{Metrics: m})
	assertZeroAllocs(t, "Conn.RecvBatch", func() {
		r.Reset(stream)
		for n := 0; n < frames; {
			batch, err := c.RecvBatch()
			if err != nil {
				t.Fatal(err)
			}
			for frame, ok := batch.Next(); ok; frame, ok = batch.Next() {
				if len(frame) != 16 || frame[0] != byte(n) {
					t.Fatalf("frame %d: %d bytes starting %d", n, len(frame), frame[0])
				}
				n++
			}
		}
	})
	if m.FramesIn.Load()%frames != 0 || m.FramesIn.Load() == 0 {
		t.Fatalf("published %d frames, want whole %d-frame writes", m.FramesIn.Load(), frames)
	}
}

// TestRecvSharedReusesBuffer pins Conn.RecvShared's aliasing contract over
// a real pipe: consecutive frames of equal size land in the same backing
// array, and the previous frame's contents are overwritten.
func TestRecvSharedReusesBuffer(t *testing.T) {
	a, b := Pipe(Options{ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second})
	defer a.Close()
	defer b.Close()

	go func() {
		a.Send([]byte("frame-one")) //nolint:errcheck
		a.Send([]byte("frame-two")) //nolint:errcheck
	}()
	f1, err := b.RecvShared()
	if err != nil {
		t.Fatal(err)
	}
	if string(f1) != "frame-one" {
		t.Fatalf("first frame = %q", f1)
	}
	p1 := &f1[0]
	f2, err := b.RecvShared()
	if err != nil {
		t.Fatal(err)
	}
	if string(f2) != "frame-two" {
		t.Fatalf("second frame = %q", f2)
	}
	if &f2[0] != p1 {
		t.Fatal("RecvShared did not reuse its buffer for the second frame")
	}
	if string(f1) != "frame-two" {
		t.Fatalf("aliasing contract: first slice now reads %q, want overwrite", f1)
	}
}
