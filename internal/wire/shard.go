// Shard codec primitives: the versioned, length-prefixed binary envelope
// distributed crawls serialize their drained shard state through, plus the
// bounds-checked primitive encoder/decoder the per-chain field schemas in
// internal/core are written against.
//
// Layout of a sealed shard blob:
//
//	magic   "SHRD"                      4 bytes
//	version uvarint                     2
//	fence   uvarint                     lease fence token, 0 = unfenced
//	chain   uvarint length + bytes      archive-manifest chain name
//	body    uvarint length + bytes      chain-specific field schema
//	crc32   IEEE, 4 bytes little-endian over everything before it
//
// The envelope owns everything a coordinator needs before it understands
// the body: a newer producer is rejected by version, a truncated or
// bit-flipped transfer is rejected by length/checksum, and the chain name
// routes the body to the right decoder. The body schema itself is
// versioned implicitly through the envelope version: any field change
// bumps it. The fence token is the one a coordinated worker stamps from
// its lease lineage, so a zombie worker's stale shard is detectable before
// merge (see internal/coord); worker checkpoints write fence 0. Older
// versions are no longer read: version 1 (no fence field) and version 2
// (state no figure reads, and float sums) are refused by version, so a blob
// an older build left behind is never half-understood.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"
)

// ShardMagic prefixes every sealed shard blob.
const ShardMagic = "SHRD"

// ShardVersion is the one shard envelope version this build reads and
// writes. Decoders refuse any other: a shard produced by a newer build may
// carry fields this build would silently drop from the merge.
const ShardVersion = 3

// ErrShardCorrupt marks blobs that fail structural validation (bad magic,
// truncation, checksum mismatch, trailing junk). Use errors.Is to detect.
var ErrShardCorrupt = errors.New("wire: corrupt shard blob")

// ShardEnc builds a shard body by appending primitives. The zero value is
// ready to use; Bytes returns the accumulated body for SealShard.
type ShardEnc struct {
	buf []byte
}

// Bytes returns the encoded body. The slice aliases the encoder's buffer.
func (e *ShardEnc) Bytes() []byte { return e.buf }

// Reset empties the body, keeping the buffer for the next one.
func (e *ShardEnc) Reset() { e.buf = e.buf[:0] }

// Uvarint appends an unsigned varint.
func (e *ShardEnc) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zigzag) varint.
func (e *ShardEnc) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// String appends a length-prefixed string.
func (e *ShardEnc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bool appends one byte: 1 for true, 0 for false.
func (e *ShardEnc) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Time appends a timestamp as a zero flag plus unix seconds and
// nanoseconds. The explicit flag matters: time.Unix of a zero time's
// components is not IsZero, and aggregate window bounds rely on zero
// meaning "never observed".
func (e *ShardEnc) Time(t time.Time) {
	if t.IsZero() {
		e.Bool(true)
		return
	}
	e.Bool(false)
	e.Varint(t.Unix())
	e.Varint(int64(t.Nanosecond()))
}

// ShardDec reads a shard body sealed by ShardEnc. It is sticky-error and
// bounds-checked: after the first malformed read every method returns the
// zero value, and no input — truncated, bit-flipped, hostile — can make it
// panic or allocate beyond a constant multiple of the blob it was given.
type ShardDec struct {
	data []byte
	off  int
	err  error
	// strs interns the strings of one decode, at most one entry per
	// non-empty string read: a shard repeats a few names many times.
	strs map[string]string
}

// NewShardDec wraps a shard body for decoding.
func NewShardDec(data []byte) *ShardDec { return &ShardDec{data: data} }

// Err returns the first decode error, or nil.
func (d *ShardDec) Err() error { return d.err }

// Remaining returns how many bytes are left unread.
func (d *ShardDec) Remaining() int { return len(d.data) - d.off }

func (d *ShardDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrShardCorrupt, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads an unsigned varint.
func (d *ShardDec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *ShardDec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// UvarintMax reads an unsigned varint; one above limit is corrupt, never
// wrapped into the narrower type the caller converts it to.
func (d *ShardDec) UvarintMax(limit uint64) uint64 {
	v := d.Uvarint()
	if v > limit {
		d.fail("value %d exceeds %d at offset %d", v, limit, d.off)
		return 0
	}
	return v
}

// String reads a length-prefixed string. The length is bounds-checked
// against the remaining input before anything is copied, and a string this
// decoder has read before comes back without a copy.
func (d *ShardDec) String() string {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
		return ""
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	s, ok := d.strs[string(b)]
	if !ok {
		if d.strs == nil {
			d.strs = make(map[string]string)
		}
		s = string(b)
		d.strs[s] = s
	}
	return s
}

// Bool reads one byte as a boolean; any value other than 0 or 1 is corrupt.
func (d *ShardDec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	b := d.data[d.off]
	d.off++
	if b > 1 {
		d.fail("bool byte 0x%02x at offset %d", b, d.off-1)
		return false
	}
	return b == 1
}

// Time reads a timestamp written by ShardEnc.Time. Non-zero times decode
// in UTC, the location every deterministic render formats in.
func (d *ShardDec) Time() time.Time {
	if d.Bool() {
		return time.Time{}
	}
	sec := d.Varint()
	nsec := d.Varint()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, nsec).UTC()
}

// Count reads a collection length and bounds it against the remaining
// input: every element costs at least one encoded byte, so a corrupted
// length can never drive a decode loop or allocation past the blob itself.
func (d *ShardDec) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail("collection length %d exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// SealShard appends a body, wrapped in the versioned, checksummed envelope
// and stamped with the lease fence token (0 = unfenced), to dst. dst grows
// at most once, so a buffer reused from seal to seal stops allocating.
func SealShard(dst []byte, chain string, fence uint64, body []byte) []byte {
	dst = slices.Grow(dst, len(ShardMagic)+len(chain)+len(body)+32)
	start := len(dst)
	blob := append(dst, ShardMagic...)
	blob = binary.AppendUvarint(blob, ShardVersion)
	blob = binary.AppendUvarint(blob, fence)
	blob = binary.AppendUvarint(blob, uint64(len(chain)))
	blob = append(blob, chain...)
	blob = binary.AppendUvarint(blob, uint64(len(body)))
	blob = append(blob, body...)
	return binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob[start:]))
}

// OpenShard validates a sealed blob's magic, version, lengths and checksum
// and returns the chain name, fence token (0 = unfenced) and body. The body
// aliases blob. Every failure mode — truncation anywhere, a flipped bit,
// trailing junk, any version but ShardVersion — is an error, never a panic.
func OpenShard(blob []byte) (chain string, fence uint64, body []byte, err error) {
	if len(blob) < len(ShardMagic)+4 {
		return "", 0, nil, fmt.Errorf("%w: %d bytes is shorter than any sealed shard", ErrShardCorrupt, len(blob))
	}
	if string(blob[:len(ShardMagic)]) != ShardMagic {
		return "", 0, nil, fmt.Errorf("%w: bad magic %q", ErrShardCorrupt, blob[:len(ShardMagic)])
	}
	sum := binary.LittleEndian.Uint32(blob[len(blob)-4:])
	if got := crc32.ChecksumIEEE(blob[:len(blob)-4]); got != sum {
		return "", 0, nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrShardCorrupt, sum, got)
	}
	d := NewShardDec(blob[len(ShardMagic) : len(blob)-4])
	version := d.Uvarint()
	if d.Err() == nil && version != ShardVersion {
		return "", 0, nil, fmt.Errorf("wire: shard version %d not supported (this build reads only %d)", version, ShardVersion)
	}
	fence = d.Uvarint()
	chain = d.String()
	n := d.Count()
	if err := d.Err(); err != nil {
		return "", 0, nil, err
	}
	body = d.data[d.off : d.off+n]
	d.off += n
	if d.Remaining() != 0 {
		return "", 0, nil, fmt.Errorf("%w: %d trailing bytes after body", ErrShardCorrupt, d.Remaining())
	}
	return chain, fence, body, nil
}
