package wsrpc

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/testkit"
)

// streamConn is a net.Conn that reads one fixed byte stream and discards
// whatever is written to it: a peer that sends exactly these bytes.
type streamConn struct{ r *bytes.Reader }

func (s streamConn) Read(p []byte) (int, error)     { return s.r.Read(p) }
func (streamConn) Write(p []byte) (int, error)      { return len(p), nil }
func (streamConn) Close() error                     { return nil }
func (streamConn) LocalAddr() net.Addr              { return nil }
func (streamConn) RemoteAddr() net.Addr             { return nil }
func (streamConn) SetDeadline(time.Time) error      { return nil }
func (streamConn) SetReadDeadline(time.Time) error  { return nil }
func (streamConn) SetWriteDeadline(time.Time) error { return nil }

// connReading returns a connection whose peer sends stream and then EOF.
func connReading(stream []byte, client bool) *Conn {
	return newConn(streamConn{bytes.NewReader(stream)}, nil, client, 1)
}

// allocatedBytes reports how many heap bytes run allocates.
func allocatedBytes(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileHeader is a 14-byte masked frame header that claims a payload of
// MaxFramePayload bytes, none of which ever arrive.
func hostileHeader() []byte {
	h := []byte{0x82, 0x80 | 127}
	h = binary.BigEndian.AppendUint64(h, MaxFramePayload)
	return append(h, 1, 2, 3, 4)
}

// TestHostileLengthAllocatesWhatArrives: a header may claim up to
// MaxFramePayload (64 MiB), but the reader grows its destination only as
// payload bytes arrive, so a peer that claims 64 MiB and hangs up costs
// what it sent, not what it claimed.
func TestHostileLengthAllocatesWhatArrives(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const bound = 1 << 20
		stream := hostileHeader()
		if len(stream) != 14 {
			t.Fatalf("header is %d bytes, want 14", len(stream))
		}
		var frameErr, msgErr error
		if got := allocatedBytes(func() { _, frameErr = readFrame(bytes.NewReader(stream)) }); got >= bound {
			t.Errorf("readFrame allocated %d bytes for a 14-byte stream, want < %d", got, bound)
		}
		if frameErr == nil {
			t.Error("readFrame of a truncated frame succeeded")
		}
		conn := connReading(stream, false)
		if got := allocatedBytes(func() { _, _, msgErr = conn.ReadMessage() }); got >= bound {
			t.Errorf("ReadMessage allocated %d bytes for a 14-byte stream, want < %d", got, bound)
		}
		if msgErr == nil {
			t.Error("ReadMessage of a truncated frame succeeded")
		}
	})
}

// readAll reads messages until the first error, either each into a slice
// of its own (ReadMessage) or all into one reused buffer that starts with a
// three-byte prefix and spare capacity (ReadMessageInto). It fails t if the
// into path ever disturbs the prefix or returns more than it on error.
type readResult struct {
	op      Opcode
	payload string
	err     string
}

func readAll(t *testing.T, stream []byte, client, into bool, spare int) []readResult {
	t.Helper()
	conn := connReading(stream, client)
	buf := append(make([]byte, 0, 3+spare), "pre"...)
	var out []readResult
	for {
		var op Opcode
		var msg []byte
		var err error
		if into {
			op, buf, err = conn.ReadMessageInto(buf)
			if string(buf[:3]) != "pre" {
				t.Fatalf("ReadMessageInto overwrote its destination's prefix: %q", buf[:3])
			}
			msg, buf = buf[3:], buf[:3]
		} else {
			op, msg, err = conn.ReadMessage()
		}
		if err != nil {
			if len(msg) != 0 {
				t.Fatalf("a failed read returned %d payload bytes", len(msg))
			}
			return append(out, readResult{err: err.Error()})
		}
		out = append(out, readResult{op: op, payload: string(msg)})
	}
}

// frames serializes fs back to back.
func frames(t testing.TB, fs ...Frame) []byte {
	t.Helper()
	var b []byte
	for _, f := range fs {
		var err error
		if b, err = appendFrame(b, f); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// FuzzReadMessage holds the two read paths to one another on arbitrary
// byte streams: ReadMessage (a nil destination) and ReadMessageInto (a
// reused buffer with a prefix and spare capacity) must return the same
// opcodes, payloads and errors, message by message. The nil path must also
// allocate at most allocFactor bytes per input byte plus allocSlack: the
// destination doubles at most per growth, so a message costs at most about
// four times its payload, and a header's claimed length costs nothing
// until its bytes arrive.
func FuzzReadMessage(f *testing.F) {
	const (
		allocFactor = 8
		allocSlack  = 64 << 10 // the reader's bufio buffer, the Conn, one error
	)
	key := [4]byte{9, 8, 7, 6}
	big := bytes.Repeat([]byte("ledger-json,"), 700)
	for _, masked := range []bool{false, true} {
		m := func(fr Frame) Frame { fr.Masked, fr.MaskKey = masked, key; return fr }
		f.Add(frames(f,
			m(Frame{FIN: true, Opcode: OpText, Payload: []byte("hello")}),
			m(Frame{FIN: false, Opcode: OpBinary, Payload: big[:300]}),
			m(Frame{FIN: true, Opcode: OpPing, Payload: []byte("mid")}),
			m(Frame{FIN: false, Opcode: OpContinuation, Payload: big[:70]}),
			m(Frame{FIN: true, Opcode: OpPong}),
			m(Frame{FIN: true, Opcode: OpContinuation, Payload: big}),
			m(Frame{FIN: true, Opcode: OpText}),
			m(Frame{FIN: true, Opcode: OpClose, Payload: []byte{3, 232}}),
		), !masked, uint16(0))
		f.Add(frames(f, m(Frame{FIN: true, Opcode: OpBinary, Payload: big})), !masked, uint16(100))
	}
	f.Add(hostileHeader(), false, uint16(7))
	f.Add([]byte{0x01, 0x03, 'a', 'b', 'c', 0x01, 0x01, 'x'}, true, uint16(1))
	f.Add([]byte{0x80, 0x01, 'x'}, true, uint16(0))
	f.Fuzz(func(t *testing.T, stream []byte, client bool, spare uint16) {
		testkit.Repeat(t, 20, func(t *testing.T) {
			var nilPath []readResult
			allocated := allocatedBytes(func() { nilPath = readAll(t, stream, client, false, 0) })
			intoPath := readAll(t, stream, client, true, int(spare%4096))
			if len(nilPath) != len(intoPath) {
				t.Fatalf("ReadMessage read %d results, ReadMessageInto %d", len(nilPath), len(intoPath))
			}
			for i := range nilPath {
				if nilPath[i] != intoPath[i] {
					t.Fatalf("result %d: ReadMessage %+v, ReadMessageInto %+v", i, nilPath[i], intoPath[i])
				}
			}
			if limit := uint64(allocFactor*len(stream) + allocSlack); allocated > limit {
				t.Fatalf("reading a %d-byte stream allocated %d bytes, want <= %d", len(stream), allocated, limit)
			}
		})
	})
}

// TestWarmClientRoundTripZeroAllocs: once its buffers are warm, a client
// round trip — a masked write, then a read into the caller's buffer —
// allocates nothing on either end of the socket.
func TestWarmClientRoundTripZeroAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		var buf []byte
		for {
			op, msg, err := conn.ReadMessageInto(buf[:0])
			if err != nil {
				return
			}
			buf = msg
			if err := conn.WriteMessage(op, msg); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := []byte(`{"command":"ledger","expand":true,"id":1,"ledger_index":52431069,"transactions":true}`)
	var buf []byte
	roundTrip := func() {
		if err := conn.WriteMessage(OpText, req); err != nil {
			t.Fatal(err)
		}
		var err error
		if _, buf, err = conn.ReadMessageInto(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("a warm round trip allocates %v times, want 0", allocs)
	}
	if !bytes.Equal(buf, req) {
		t.Fatalf("echo = %q, want %q", buf, req)
	}
}
