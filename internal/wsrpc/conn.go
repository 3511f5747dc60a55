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

	// readMu is held across ReadMessageInto so Close can tell that a reader
	// is parked on the socket and leave the buffered reader to it. It guards
	// rh and ctl, the reader's frame header and control payload.
	readMu sync.Mutex
	rh     frameHeader
	ctl    [maxControlPayload]byte

	// writeMu guards wbuf, into which each frame is serialized whole, and
	// maskRNG.
	writeMu sync.Mutex
	wbuf    []byte
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
	return c.writeLocked(f)
}

// maxKeptWriteBuffer bounds the write buffer a connection keeps between
// frames; a larger frame's buffer is dropped once sent.
const maxKeptWriteBuffer = 1 << 20

// writeLocked serializes f, masked on a client, into the connection's write
// buffer and sends header and payload in one Write. Called with writeMu
// held.
func (c *Conn) writeLocked(f Frame) error {
	if c.client {
		f.Masked = true
		f.MaskKey = c.nextMask()
	}
	b, err := appendFrame(c.wbuf[:0], f)
	if err != nil {
		return err
	}
	_, err = c.netConn.Write(b)
	c.wbuf = nil
	if cap(b) <= maxKeptWriteBuffer {
		c.wbuf = b
	}
	if err != nil {
		return fmt.Errorf("wsrpc: writing frame: %w", err)
	}
	return nil
}

// WriteMessage sends a complete text or binary message.
func (c *Conn) WriteMessage(op Opcode, data []byte) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("wsrpc: WriteMessage with opcode %d", op)
	}
	return c.writeFrame(Frame{FIN: true, Opcode: op, Payload: data})
}

// WriteJSON marshals v and sends it as a text message.
func (c *Conn) WriteJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wsrpc: marshaling message: %w", err)
	}
	return c.WriteMessage(OpText, data)
}

// ReadMessage returns the next complete data message in a slice of its
// own; see ReadMessageInto.
func (c *Conn) ReadMessage() (Opcode, []byte, error) { return c.ReadMessageInto(nil) }

// ReadMessageInto appends the next complete data message to dst and returns
// the extended slice, transparently reassembling fragments, answering pings
// and completing the close handshake (after which ErrClosed is returned).
// dst grows only as payload bytes arrive, so a caller that passes a warm
// buffer reads without allocating. On error it returns dst truncated to its
// original length, perhaps with new capacity, for the caller to recycle.
func (c *Conn) ReadMessageInto(dst []byte) (Opcode, []byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	start := len(dst)
	op, dst, err := c.readMessageLocked(dst)
	if err != nil {
		return 0, dst[:start], err
	}
	return op, dst, nil
}

// readMessageLocked is ReadMessageInto's loop. Called with readMu held.
func (c *Conn) readMessageLocked(dst []byte) (Opcode, []byte, error) {
	start := len(dst)
	h := &c.rh
	var msgOp Opcode
	assembling := false
	for {
		if err := h.read(c.br); err != nil {
			return 0, dst, err
		}
		// Masking direction check: clients must mask, servers must not.
		if c.client == h.masked {
			return 0, dst, fmt.Errorf("wsrpc: wrong masking direction (client=%v masked=%v)", c.client, h.masked)
		}
		if h.op.IsControl() {
			ctl, err := h.readPayload(c.br, c.ctl[:0])
			if err != nil {
				return 0, dst, err
			}
			switch h.op {
			case OpPing:
				if err := c.writeFrame(Frame{FIN: true, Opcode: OpPong, Payload: ctl}); err != nil {
					return 0, dst, err
				}
			case OpPong:
				// Unsolicited pongs are permitted and ignored.
			case OpClose:
				c.writeMu.Lock()
				if !c.closed {
					c.closed = true
					_ = c.writeLocked(Frame{FIN: true, Opcode: OpClose, Payload: ctl})
				}
				c.writeMu.Unlock()
				c.netConn.Close()
				return 0, dst, ErrClosed
			default:
				return 0, dst, fmt.Errorf("wsrpc: unknown opcode %d", h.op)
			}
			continue
		}
		switch h.op {
		case OpText, OpBinary:
			if assembling {
				return 0, dst, fmt.Errorf("wsrpc: new data frame while assembling fragments")
			}
			msgOp = h.op
			assembling = true
		case OpContinuation:
			if !assembling {
				return 0, dst, fmt.Errorf("wsrpc: continuation without initial frame")
			}
			if uint64(len(dst)-start)+h.length > MaxFramePayload {
				return 0, dst, ErrFrameTooLarge
			}
		default:
			return 0, dst, fmt.Errorf("wsrpc: unknown opcode %d", h.op)
		}
		var err error
		if dst, err = h.readPayload(c.br, dst); err != nil {
			return 0, dst, err
		}
		if h.fin {
			return msgOp, dst, nil
		}
	}
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
			err = c.writeLocked(Frame{FIN: true, Opcode: OpClose})
		}
		c.writeMu.Unlock()
		// Best effort: read the close echo so the peer sees a clean
		// shutdown. A reader parked in ReadMessage owns the buffered reader;
		// closing the socket under it is what wakes it.
		if c.readMu.TryLock() {
			for i := 0; i < 8; i++ {
				if c.rh.read(c.br) != nil || c.rh.op == OpClose {
					break
				}
				if _, rerr := c.br.Discard(int(c.rh.length)); rerr != nil {
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
