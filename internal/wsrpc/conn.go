package wsrpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned once the close handshake has completed.
var ErrClosed = errors.New("wsrpc: connection closed")

// Conn is an established WebSocket connection. Reads must come from a single
// goroutine; writes are internally serialized so control responses (pong,
// close echo) can interleave with application messages. Close may be called
// from any goroutine, including while a read or write is blocked on the peer.
type Conn struct {
	netConn net.Conn
	br      *bufio.Reader
	client  bool // client connections mask outgoing frames

	// readMu is held across ReadMessage so Close can tell that a reader is
	// parked on the socket and leave the buffered reader to it.
	readMu  sync.Mutex
	writeMu sync.Mutex
	maskRNG uint64

	closeOnce sync.Once
	closed    bool
}

func newConn(nc net.Conn, br *bufio.Reader, client bool, maskSeed uint64) *Conn {
	if br == nil {
		br = bufio.NewReader(nc)
	}
	return &Conn{netConn: nc, br: br, client: client, maskRNG: maskSeed | 1}
}

// nextMask produces mask keys from a cheap xorshift generator; RFC 6455 only
// requires unpredictability from the network's perspective to defeat proxy
// cache poisoning, which this satisfies for the simulator's loopback use.
func (c *Conn) nextMask() (k [4]byte) {
	c.maskRNG ^= c.maskRNG << 13
	c.maskRNG ^= c.maskRNG >> 7
	c.maskRNG ^= c.maskRNG << 17
	binary.BigEndian.PutUint32(k[:], uint32(c.maskRNG))
	return k
}

func (c *Conn) writeFrame(f Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed && f.Opcode != OpClose {
		return ErrClosed
	}
	if c.client {
		f.Masked = true
		f.MaskKey = c.nextMask()
	}
	return WriteFrame(c.netConn, f)
}

// WriteMessage sends a complete text or binary message.
func (c *Conn) WriteMessage(op Opcode, data []byte) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("wsrpc: WriteMessage with opcode %d", op)
	}
	return c.writeFrame(Frame{FIN: true, Opcode: op, Payload: data})
}

// WriteFragmented sends a message split into frames of at most chunk bytes,
// exercising RFC 6455 §5.4 fragmentation. Peers reassemble transparently in
// ReadMessage. The write lock is held across all fragments so concurrent
// writers cannot interleave data frames (control frames from the peer may
// still arrive between fragments, which is legal).
func (c *Conn) WriteFragmented(op Opcode, data []byte, chunk int) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("wsrpc: WriteFragmented with opcode %d", op)
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
		if c.client {
			frame.Masked = true
			frame.MaskKey = c.nextMask()
		}
		if err := WriteFrame(c.netConn, frame); err != nil {
			return err
		}
		if frame.FIN {
			return nil
		}
		data = data[chunk:]
		first = false
	}
}

// WriteJSON marshals v and sends it as a text message.
func (c *Conn) WriteJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wsrpc: marshaling message: %w", err)
	}
	return c.WriteMessage(OpText, data)
}

// Ping sends a ping control frame.
func (c *Conn) Ping(data []byte) error {
	return c.writeFrame(Frame{FIN: true, Opcode: OpPing, Payload: data})
}

// ReadMessage returns the next complete data message, transparently
// reassembling fragments, answering pings and completing the close
// handshake (after which ErrClosed is returned).
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	var msgOp Opcode
	var buf []byte
	assembling := false
	for {
		f, err := ReadFrame(c.br)
		if err != nil {
			return 0, nil, err
		}
		// Masking direction check: clients must mask, servers must not.
		if c.client == f.Masked {
			return 0, nil, fmt.Errorf("wsrpc: wrong masking direction (client=%v masked=%v)", c.client, f.Masked)
		}
		switch f.Opcode {
		case OpPing:
			if err := c.writeFrame(Frame{FIN: true, Opcode: OpPong, Payload: f.Payload}); err != nil {
				return 0, nil, err
			}
		case OpPong:
			// Unsolicited pongs are permitted and ignored.
		case OpClose:
			c.writeMu.Lock()
			alreadyClosed := c.closed
			c.closed = true
			c.writeMu.Unlock()
			if !alreadyClosed {
				_ = WriteFrame(c.netConn, c.maybeMask(Frame{FIN: true, Opcode: OpClose, Payload: f.Payload}))
			}
			c.netConn.Close()
			return 0, nil, ErrClosed
		case OpText, OpBinary:
			if assembling {
				return 0, nil, fmt.Errorf("wsrpc: new data frame while assembling fragments")
			}
			if f.FIN {
				return f.Opcode, f.Payload, nil
			}
			msgOp = f.Opcode
			buf = append(buf, f.Payload...)
			assembling = true
		case OpContinuation:
			if !assembling {
				return 0, nil, fmt.Errorf("wsrpc: continuation without initial frame")
			}
			buf = append(buf, f.Payload...)
			if len(buf) > MaxFramePayload {
				return 0, nil, ErrFrameTooLarge
			}
			if f.FIN {
				return msgOp, buf, nil
			}
		default:
			return 0, nil, fmt.Errorf("wsrpc: unknown opcode %d", f.Opcode)
		}
	}
}

func (c *Conn) maybeMask(f Frame) Frame {
	if c.client {
		f.Masked = true
		f.MaskKey = c.nextMask()
	}
	return f
}

// ReadJSON reads the next message and unmarshals it into v.
func (c *Conn) ReadJSON(v any) error {
	_, data, err := c.ReadMessage()
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// Close performs the closing handshake from this side and releases the
// underlying connection. It is safe to call while another goroutine is
// blocked in a read or write on the connection — that call then fails —
// which is how a caller abandons a peer that has stopped answering.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		// Bounds the handshake below, and any write that holds writeMu
		// against a peer that stopped reading.
		_ = c.netConn.SetDeadline(deadlineSoon())
		c.writeMu.Lock()
		alreadyClosed := c.closed
		c.closed = true
		if !alreadyClosed {
			err = WriteFrame(c.netConn, c.maybeMask(Frame{FIN: true, Opcode: OpClose}))
		}
		c.writeMu.Unlock()
		// Best effort: read the close echo so the peer sees a clean
		// shutdown. A reader parked in ReadMessage owns the buffered reader;
		// closing the socket under it is what wakes it.
		if c.readMu.TryLock() {
			for i := 0; i < 8; i++ {
				f, rerr := ReadFrame(c.br)
				if rerr != nil || f.Opcode == OpClose {
					break
				}
			}
			c.readMu.Unlock()
		}
		cerr := c.netConn.Close()
		if err == nil && cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
	})
	return err
}

// deadlineSoon bounds the close-echo wait so Close never hangs on a silent
// peer.
func deadlineSoon() time.Time { return time.Now().Add(250 * time.Millisecond) }
