// Package wsrpc is a from-scratch RFC 6455 WebSocket implementation (client
// and server) built only on the standard library. The XRP Ledger exposes its
// primary API over WebSocket; the paper's collection methodology ("we use
// the ledger method of the Websocket API") is reproduced on top of this
// package.
package wsrpc

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"
)

// Opcode identifies a WebSocket frame type.
type Opcode byte

// RFC 6455 frame opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// IsControl reports whether the opcode is a control frame: control frames
// may be injected between fragments and carry at most 125 payload bytes.
func (o Opcode) IsControl() bool { return o >= OpClose }

// Frame is a single WebSocket frame.
type Frame struct {
	FIN     bool
	Opcode  Opcode
	Masked  bool
	MaskKey [4]byte
	Payload []byte
}

// Frame-size guards: control frames are capped by the RFC; data frames by a
// sanity limit so a corrupt length prefix cannot trigger huge allocations.
const (
	maxControlPayload = 125
	// MaxFramePayload bounds a single frame; ledgers serialize to well
	// under this.
	MaxFramePayload = 64 << 20
)

// Errors surfaced by the codec.
var (
	ErrFrameTooLarge     = errors.New("wsrpc: frame exceeds maximum payload size")
	ErrBadControlFrame   = errors.New("wsrpc: control frame fragmented or too large")
	ErrReservedBits      = errors.New("wsrpc: reserved bits set (no extensions negotiated)")
	ErrBadLengthEncoding = errors.New("wsrpc: non-minimal length encoding")
)

// appendFrame appends f's header and payload to dst, masking the payload as
// it copies when f.Masked is set (clients mask, servers must not).
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	if f.Opcode.IsControl() && (len(f.Payload) > maxControlPayload || !f.FIN) {
		return dst, ErrBadControlFrame
	}
	b0 := byte(f.Opcode)
	if f.FIN {
		b0 |= 0x80
	}
	var b1 byte
	if f.Masked {
		b1 = 0x80
	}
	length := len(f.Payload)
	switch {
	case length <= 125:
		dst = append(dst, b0, b1|byte(length))
	case length <= 0xFFFF:
		dst = append(dst, b0, b1|126)
		dst = binary.BigEndian.AppendUint16(dst, uint16(length))
	default:
		dst = append(dst, b0, b1|127)
		dst = binary.BigEndian.AppendUint64(dst, uint64(length))
	}
	if !f.Masked {
		return append(dst, f.Payload...), nil
	}
	dst = append(dst, f.MaskKey[:]...)
	start := len(dst)
	dst = append(dst, f.Payload...)
	mask(dst[start:], f.MaskKey)
	return dst, nil
}

// mask XORs b with the repeated key, as RFC 6455 §5.3 masks (and unmasks)
// a payload that starts at b[0].
func mask(b []byte, key [4]byte) {
	for i := range b {
		b[i] ^= key[i&3]
	}
}

// frameHeader is one parsed frame header: everything before the payload.
type frameHeader struct {
	fin    bool
	op     Opcode
	masked bool
	key    [4]byte
	length uint64
	// scratch receives the header bytes. Embedded, a header held by a Conn
	// reads through an io.Reader without a per-frame allocation.
	scratch [8]byte
}

// read parses the next frame header from r.
func (h *frameHeader) read(r io.Reader) error {
	b := h.scratch[:2]
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	h.fin = b[0]&0x80 != 0
	if b[0]&0x70 != 0 {
		return ErrReservedBits
	}
	h.op = Opcode(b[0] & 0x0F)
	h.masked = b[1]&0x80 != 0
	h.length = uint64(b[1] & 0x7F)
	switch h.length {
	case 126:
		ext := h.scratch[:2]
		if _, err := io.ReadFull(r, ext); err != nil {
			return err
		}
		h.length = uint64(binary.BigEndian.Uint16(ext))
		if h.length <= 125 {
			return ErrBadLengthEncoding
		}
	case 127:
		ext := h.scratch[:8]
		if _, err := io.ReadFull(r, ext); err != nil {
			return err
		}
		h.length = binary.BigEndian.Uint64(ext)
		if h.length <= 0xFFFF {
			return ErrBadLengthEncoding
		}
	}
	if h.op.IsControl() && (h.length > maxControlPayload || !h.fin) {
		return ErrBadControlFrame
	}
	if h.length > MaxFramePayload {
		return ErrFrameTooLarge
	}
	if h.masked {
		if _, err := io.ReadFull(r, h.scratch[:4]); err != nil {
			return err
		}
		h.key = [4]byte(h.scratch[:4])
	}
	return nil
}

// minPayloadGrowth is the least readPayload grows a full destination by.
const minPayloadGrowth = 512

// readPayload appends the frame's payload from r to dst, unmasked. dst
// grows only as payload bytes arrive, at most doubling what already
// arrived, so a header that claims more than the peer sends costs what
// the peer sent, not what it claimed. On error the bytes read so far stay
// appended.
func (h *frameHeader) readPayload(r io.Reader, dst []byte) ([]byte, error) {
	start := len(dst)
	for left := int(h.length); left > 0; {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(left, max(len(dst)-start, minPayloadGrowth)))
		}
		n, err := io.ReadFull(r, dst[len(dst):min(cap(dst), len(dst)+left)])
		dst = dst[:len(dst)+n]
		left -= n
		if err != nil {
			if err == io.EOF && len(dst) > start {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
	}
	if h.masked {
		mask(dst[start:], h.key)
	}
	return dst, nil
}
