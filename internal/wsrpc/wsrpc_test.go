package wsrpc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testkit"
)

func TestFrameRoundTrip(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		cases := []Frame{
			{FIN: true, Opcode: OpText, Payload: []byte("hello")},
			{FIN: false, Opcode: OpBinary, Payload: bytes.Repeat([]byte{7}, 200)},   // 16-bit length
			{FIN: true, Opcode: OpBinary, Payload: bytes.Repeat([]byte{9}, 70_000)}, // 64-bit length
			{FIN: true, Opcode: OpPing, Payload: []byte("ping")},
			{FIN: true, Opcode: OpClose},
			{FIN: true, Opcode: OpText, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: []byte("masked payload")},
		}
		for _, f := range cases {
			var buf bytes.Buffer
			if err := writeFrameTo(&buf, f); err != nil {
				t.Fatalf("writeFrameTo(%+v): %v", f.Opcode, err)
			}
			got, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("readFrame(%+v): %v", f.Opcode, err)
			}
			if got.FIN != f.FIN || got.Opcode != f.Opcode || !bytes.Equal(got.Payload, f.Payload) {
				t.Fatalf("round trip mismatch: sent %+v got %+v", f, got)
			}
			if got.Masked != f.Masked {
				t.Fatalf("mask flag lost")
			}
		}
	})
}

func TestFrameRoundTripProperty(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		f := func(payload []byte, masked bool, keySeed uint32) bool {
			fr := Frame{FIN: true, Opcode: OpBinary, Masked: masked, Payload: payload}
			if masked {
				fr.MaskKey = [4]byte{byte(keySeed), byte(keySeed >> 8), byte(keySeed >> 16), byte(keySeed >> 24)}
			}
			var buf bytes.Buffer
			if err := writeFrameTo(&buf, fr); err != nil {
				return false
			}
			got, err := readFrame(&buf)
			return err == nil && bytes.Equal(got.Payload, payload)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestControlFrameLimits(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		var buf bytes.Buffer
		err := writeFrameTo(&buf, Frame{FIN: true, Opcode: OpPing, Payload: bytes.Repeat([]byte{0}, 126)})
		if !errors.Is(err, ErrBadControlFrame) {
			t.Fatalf("oversized ping: %v", err)
		}
		err = writeFrameTo(&buf, Frame{FIN: false, Opcode: OpClose})
		if !errors.Is(err, ErrBadControlFrame) {
			t.Fatalf("fragmented close: %v", err)
		}
	})
}

func TestReadFrameRejectsReservedBits(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		raw := []byte{0xC1, 0x00} // FIN + RSV1, opcode text, empty
		_, err := readFrame(bytes.NewReader(raw))
		if !errors.Is(err, ErrReservedBits) {
			t.Fatalf("reserved bits: %v", err)
		}
	})
}

func TestReadFrameRejectsNonMinimalLength(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		// 16-bit extended length used for a 5-byte payload.
		raw := []byte{0x82, 126, 0x00, 0x05, 1, 2, 3, 4, 5}
		if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadLengthEncoding) {
			t.Fatalf("non-minimal 16-bit length: %v", err)
		}
	})
}

func TestAcceptKeyRFCVector(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		// The worked example from RFC 6455 §1.3.
		if got := acceptKey("dGhlIHNhbXBsZSBub25jZQ=="); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
			t.Fatalf("acceptKey = %q", got)
		}
	})
}

// echoServer upgrades and echoes every message back.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, data, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := conn.WriteMessage(op, data); err != nil {
				return
			}
		}
	}))
}

func wsURL(s *httptest.Server) string {
	return "ws" + strings.TrimPrefix(s.URL, "http")
}

func TestClientServerEcho(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := echoServer(t)
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, msg := range []string{"first", "second", strings.Repeat("big", 50_000)} {
			if err := conn.WriteMessage(OpText, []byte(msg)); err != nil {
				t.Fatal(err)
			}
			op, data, err := conn.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			if op != OpText || string(data) != msg {
				t.Fatalf("echo mismatch: %d bytes", len(data))
			}
		}
	})
}

func TestJSONRoundTrip(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := echoServer(t)
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		type req struct {
			Command     string `json:"command"`
			LedgerIndex int64  `json:"ledger_index"`
		}
		sent := req{Command: "ledger", LedgerIndex: 52_431_069}
		if err := conn.WriteJSON(sent); err != nil {
			t.Fatal(err)
		}
		var got req
		if err := conn.ReadJSON(&got); err != nil {
			t.Fatal(err)
		}
		if got != sent {
			t.Fatalf("json round trip: %+v", got)
		}
	})
}

func TestPingPongTransparent(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, err := Upgrade(w, r)
			if err != nil {
				return
			}
			defer conn.Close()
			// Server pings, then sends the real message.
			if err := conn.ping([]byte("are you there")); err != nil {
				return
			}
			_ = conn.WriteMessage(OpText, []byte("after-ping"))
			// Wait for the client's message; the pong must already have been
			// answered transparently by the client's read loop.
			_, _, _ = conn.ReadMessage()
		}))
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, data, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "after-ping" {
			t.Fatalf("got %q", data)
		}
		if err := conn.WriteMessage(OpText, []byte("done")); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConcurrentWriters(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := echoServer(t)
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		const writers, perWriter = 8, 25
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := conn.WriteMessage(OpText, []byte("concurrent")); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}()
		}
		received := 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			for received < writers*perWriter {
				_, data, err := conn.ReadMessage()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if string(data) != "concurrent" {
					t.Errorf("corrupted frame: %q", data)
					return
				}
				received++
			}
		}()
		wg.Wait()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d echoes received", received, writers*perWriter)
		}
	})
}

func TestCloseHandshake(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := echoServer(t)
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := conn.WriteMessage(OpText, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("write after close: %v", err)
		}
	})
}

// TestCloseWakesParkedReader: Close from another goroutine must fail a read
// parked on a peer that never answers, without touching the buffered reader
// that read owns (the race detector is the witness).
func TestCloseWakesParkedReader(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		release := make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, err := Upgrade(w, r)
			if err != nil {
				return
			}
			defer conn.Close()
			<-release // accept, then say nothing
		}))
		defer srv.Close()
		defer close(release)
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		readErr := make(chan error, 1)
		go func() {
			_, _, err := conn.ReadMessage()
			readErr <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the reader park; Close is correct either way
		conn.Close()
		select {
		case err := <-readErr:
			if err == nil {
				t.Fatal("read on a closed connection succeeded")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close left the reader parked on a silent peer")
		}
	})
}

func TestDialRejectsNonWebSocketServer(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "plain http", http.StatusOK)
		}))
		defer srv.Close()
		if _, err := Dial(wsURL(srv)); err == nil {
			t.Fatal("handshake against plain HTTP succeeded")
		}
	})
}

func TestUpgradeRejectsPlainGET(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if _, err := Upgrade(w, r); err == nil {
				t.Error("upgrade of plain GET succeeded")
			}
		}))
		defer srv.Close()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusSwitchingProtocols {
			t.Fatal("server switched protocols for plain GET")
		}
	})
}

func TestDialBadURL(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		if _, err := Dial("http://example.com"); err == nil {
			t.Fatal("http scheme accepted")
		}
		if _, err := Dial("://bad"); err == nil {
			t.Fatal("garbage URL accepted")
		}
	})
}

func TestFragmentedMessageReassembly(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := echoServer(t)
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		msg := bytes.Repeat([]byte("fragmented-payload-"), 1000)
		if err := conn.writeFragmented(OpBinary, msg, 256); err != nil {
			t.Fatal(err)
		}
		op, data, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != OpBinary || !bytes.Equal(data, msg) {
			t.Fatalf("reassembly mismatch: %d bytes, op %d", len(data), op)
		}
	})
}

func TestFragmentedEmptyAndTiny(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := echoServer(t)
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// A message smaller than the chunk degenerates to a single frame.
		if err := conn.writeFragmented(OpText, []byte("x"), 256); err != nil {
			t.Fatal(err)
		}
		_, data, err := conn.ReadMessage()
		if err != nil || string(data) != "x" {
			t.Fatalf("tiny fragmented message: %q %v", data, err)
		}
		if err := conn.writeFragmented(OpText, nil, 1); err != nil {
			t.Fatal(err)
		}
		_, data, err = conn.ReadMessage()
		if err != nil || len(data) != 0 {
			t.Fatalf("empty fragmented message: %q %v", data, err)
		}
	})
}

func TestWriteFragmentedValidation(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := echoServer(t)
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.writeFragmented(OpPing, []byte("x"), 1); err == nil {
			t.Fatal("control frames cannot be fragmented")
		}
		if err := conn.writeFragmented(OpText, []byte("x"), 0); err == nil {
			t.Fatal("zero chunk accepted")
		}
	})
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	payload := bytes.Repeat([]byte("ledger-json"), 100) // ~1.1 kB frame
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeFrameTo(&buf, Frame{FIN: true, Opcode: OpText, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := readFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload)))
}

func BenchmarkMaskedFrameRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte("ledger-json"), 100)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		f := Frame{FIN: true, Opcode: OpBinary, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: payload}
		if err := writeFrameTo(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := readFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload)))
}

func BenchmarkEchoRoundTrip(b *testing.B) {
	srv := echoServer(&testing.T{})
	defer srv.Close()
	conn, err := Dial(wsURL(srv))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte("x"), 512)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := conn.WriteMessage(OpBinary, msg); err != nil {
			b.Fatal(err)
		}
		if _, _, err := conn.ReadMessage(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(msg)))
}

// TestPingBetweenFragments: RFC 6455 allows control frames to interleave
// with a fragmented message; the reader must answer the ping and still
// reassemble the data message.
func TestPingBetweenFragments(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, err := Upgrade(w, r)
			if err != nil {
				return
			}
			defer conn.Close()
			// Hand-roll: first fragment, ping, final fragment.
			if err := conn.writeFrame(Frame{FIN: false, Opcode: OpText, Payload: []byte("first-")}); err != nil {
				return
			}
			if err := conn.writeFrame(Frame{FIN: true, Opcode: OpPing, Payload: []byte("mid")}); err != nil {
				return
			}
			if err := conn.writeFrame(Frame{FIN: true, Opcode: OpContinuation, Payload: []byte("second")}); err != nil {
				return
			}
			// Expect the pong (read loop handles it) and then the client's ack.
			_, _, _ = conn.ReadMessage()
		}))
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		op, data, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != OpText || string(data) != "first-second" {
			t.Fatalf("reassembled %q (op %d)", data, op)
		}
		conn.WriteMessage(OpText, []byte("ack"))
	})
}

// TestInterleavedDataFramesRejected: a second data frame while assembling
// fragments is a protocol violation.
func TestInterleavedDataFramesRejected(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, err := Upgrade(w, r)
			if err != nil {
				return
			}
			defer conn.Close()
			conn.writeFrame(Frame{FIN: false, Opcode: OpText, Payload: []byte("a")})
			conn.writeFrame(Frame{FIN: true, Opcode: OpText, Payload: []byte("b")}) // violation
			_, _, _ = conn.ReadMessage()
		}))
		defer srv.Close()
		conn, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, _, err := conn.ReadMessage(); err == nil {
			t.Fatal("interleaved data frames accepted")
		}
	})
}

// writeFrameTo serializes a frame to w in a single Write. A masked frame's
// payload is masked into the serialized copy; f.Payload is left as it was.
func writeFrameTo(w io.Writer, f Frame) error {
	b, err := appendFrame(nil, f)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("wsrpc: writing frame: %w", err)
	}
	return nil
}

// readFrame parses one frame from r, unmasking the payload if needed.
func readFrame(r io.Reader) (Frame, error) {
	var h frameHeader
	if err := h.read(r); err != nil {
		return Frame{FIN: h.fin, Opcode: h.op, Masked: h.masked}, err
	}
	f := Frame{FIN: h.fin, Opcode: h.op, Masked: h.masked, MaskKey: h.key}
	var err error
	f.Payload, err = h.readPayload(r, nil)
	return f, err
}

// writeFragmented sends a message split into frames of at most chunk bytes,
// exercising RFC 6455 §5.4 fragmentation. Peers reassemble transparently in
// ReadMessage. The write lock is held across all fragments so concurrent
// writers cannot interleave data frames (control frames from the peer may
// still arrive between fragments, which is legal).
func (c *Conn) writeFragmented(op Opcode, data []byte, chunk int) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("wsrpc: writeFragmented with opcode %d", op)
	}
	if chunk <= 0 {
		return fmt.Errorf("wsrpc: non-positive chunk size %d", chunk)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	first := true
	for {
		frame := Frame{Opcode: OpContinuation}
		if first {
			frame.Opcode = op
		}
		if len(data) <= chunk {
			frame.FIN = true
			frame.Payload = data
		} else {
			frame.Payload = data[:chunk]
		}
		if err := c.writeLocked(frame); err != nil {
			return err
		}
		if frame.FIN {
			return nil
		}
		data = data[chunk:]
		first = false
	}
}

// ping sends a ping control frame.
func (c *Conn) ping(data []byte) error {
	return c.writeFrame(Frame{FIN: true, Opcode: OpPing, Payload: data})
}
