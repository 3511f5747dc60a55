package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// The archive's own DEFLATE (RFC 1951) decoder, the one that reads every
// segment. It inflates one in-memory gzip member straight into the part of
// the segment buffer the member's ISIZE sized, where compress/gzip reads
// every input byte through an io.ByteReader call and copies its output out
// of a separate 32 KiB window. It refuses every member stdlib refuses —
// the trailer's CRC-32 and ISIZE are checked, the member must end exactly
// where its input does, no match reaches before the start of the output
// and nothing is written past its end — and a few that stdlib would take
// but the writer never writes (see gunzip and buildTable). So it accepts a
// member only when stdlib would accept it with the same bytes
// (FuzzInflateMember), and it accepts every member compress/gzip writes, at
// any level (TestInflateAcceptsEveryLevel).
//
// Bits are read least significant first from a 64-bit buffer refilled a
// word at a time. Codes decode through two-level tables: a primary table
// indexed by the next root bits, whose entries for longer codes link to a
// subtable of 2^(longest-root) entries indexed by the bits after them.
// Matches copy out of the output itself, which is the whole window: a
// member starts with no history, so a distance may reach back to its first
// byte and no further.

// A table entry packs what a code decodes to:
//
//	bits 0-7    code bits to drop (for a link: the root bits)
//	bits 8-11   extra bits after the code (for a link: the subtable's index bits)
//	bits 12-15  kind: entryLit, entryBase, entryEnd or entryLink; none is invalid
//	bits 16-31  literal byte, length or distance base, code-length symbol,
//	            or the subtable's offset in the table
const (
	entryLit  = 1 << 12 // a literal byte
	entryBase = 1 << 13 // a length or distance base, or a code-length symbol
	entryEnd  = 1 << 14 // the end of the block
	entryLink = 1 << 15 // a link to a subtable
)

const (
	litRoot  = 10 // primary index bits of the literal/length table
	distRoot = 8  // and of the distance table
	clenRoot = 7  // code-length codes are at most 7 bits: one level

	maxCodeBits = 15
	maxLitSyms  = 286 // HLIT's ceiling, as compress/flate holds it
	maxDistSyms = 30

	// A complete code links at most one root entry per two symbols, each
	// to a subtable of at most 2^(15-root) entries. buildTable checks the
	// bound anyway.
	litTableSize  = 1<<litRoot + 288/2<<(maxCodeBits-litRoot)
	distTableSize = 1<<distRoot + maxDistSyms/2<<(maxCodeBits-distRoot)
)

// The payloads of each alphabet's symbols: the entry less its code bits.
// Literal/length symbols 286 and 287 and distance symbols 30 and 31 stay
// zero, which decodes as invalid, so fixed-code blocks that use them are
// refused as RFC 1951 requires.
var litPayload, distPayload, clenPayload = payloads()

// The fixed code of RFC 1951 §3.2.6, built once.
var fixedLit, fixedDist = fixedTables()

// codeOrder is the order in which a dynamic block sends the code-length
// code's lengths (RFC 1951 §3.2.7).
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func payloads() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := range 256 {
		lit[s] = entryLit | uint32(s)<<16
	}
	lit[256] = entryEnd
	// Lengths 3-10 take no extra bits, then every four codes one more, up
	// to 227-257 in 5 bits; 285 is 258 exactly.
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(0)
		if s >= 265 {
			extra = uint32(s-261) / 4
		}
		lit[s] = entryBase | base<<16 | extra<<8
		base += 1 << extra
	}
	lit[285] = entryBase | 258<<16
	base = 1
	for s := range maxDistSyms {
		extra := uint32(0)
		if s >= 4 {
			extra = uint32(s-2) / 2
		}
		dist[s] = entryBase | base<<16 | extra<<8
		base += 1 << extra
	}
	for s := range clen {
		clen[s] = entryBase | uint32(s)<<16
	}
	return lit, dist, clen
}

func fixedTables() (*[litTableSize]uint32, *[distTableSize]uint32) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	lit, dist := new([litTableSize]uint32), new([distTableSize]uint32)
	var dlens [32]uint8
	for s := range dlens {
		dlens[s] = 5
	}
	var sorted [288]uint16
	if !buildTable(lit[:], litRoot, lens[:], litPayload[:], &sorted) ||
		!buildTable(dist[:], distRoot, dlens[:], distPayload[:], &sorted) {
		panic("archive: the fixed DEFLATE code does not build")
	}
	return lit, dist
}

// buildTable fills table with the decoding entries of the canonical code
// whose code lengths lens gives per symbol, symbol s decoding to
// payload[s], and reports whether it built one. It builds a complete code,
// and the one incomplete code compress/flate also takes: a single symbol
// of one bit, whose other bit decodes as invalid. It refuses an
// oversubscribed code, any other incomplete one, and an empty one — which
// stdlib takes for a distance code a block never uses, and which
// compress/flate never writes: a block without matches still gets one
// distance code.
func buildTable(table []uint32, root uint, lens []uint8, payload []uint32, sorted *[288]uint16) bool {
	var count [maxCodeBits + 1]int
	for _, l := range lens {
		count[l]++
	}
	longest := maxCodeBits
	for longest > 0 && count[longest] == 0 {
		longest--
	}
	if longest == 0 {
		return false
	}
	left := 1
	for l := 1; l <= maxCodeBits; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return false
		}
	}
	if left != 0 {
		if longest != 1 || count[1] != 1 {
			return false
		}
		clear(table[:1<<root])
	}

	// Symbols in code order: by length, then by symbol.
	var offs [maxCodeBits + 1]int
	for l := 1; l < maxCodeBits; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// Codes are assigned in increasing order, shorter first, so the codes
	// longer than root sharing one root prefix are consecutive: each run
	// of them gets one subtable.
	subBits := uint(0)
	if uint(longest) > root {
		subBits = uint(longest) - root
	}
	var (
		code   uint
		next   = 1 << root // next free subtable slot
		prefix = -1
		sub    int
		i      int
	)
	for l := uint(1); l <= uint(longest); l++ {
		for range count[l] {
			e := payload[sorted[i]]
			i++
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			if l <= root {
				e |= uint32(l)
				for j := rev; j < 1<<root; j += 1 << l {
					table[j] = e
				}
			} else {
				if p := rev & (1<<root - 1); p != prefix {
					if next+1<<subBits > len(table) {
						return false
					}
					prefix, sub = p, next
					table[p] = entryLink | uint32(sub)<<16 | uint32(subBits)<<8 | uint32(root)
					next += 1 << subBits
				}
				e |= uint32(l - root)
				for j := rev >> root; j < 1<<subBits; j += 1 << (l - root) {
					table[sub+j] = e
				}
			}
			code++
		}
		code <<= 1
	}
	return true
}

// bitReader reads src least significant bit first. buf holds nb bits not
// yet consumed, and byte pos of src is the first not yet loaded into it;
// bits of buf above nb are zero or the stream's next bits. Past the end of
// src it loads zeros, and reports a refill once the bits consumed run past
// the end.
type bitReader struct {
	src []byte
	pos int
	buf uint64
	nb  uint
}

// consumed is the offset just past the last byte any consumed bit came
// from: a byte only partly consumed counts as consumed.
func (b *bitReader) consumed() int { return b.pos - int(b.nb>>3) }

// refill tops buf up to at least 56 bits, eight bytes at a time where src
// has them, and reports false once the bits consumed ran past src's end.
func (b *bitReader) refill() bool {
	if b.pos <= len(b.src)-8 {
		b.buf |= binary.LittleEndian.Uint64(b.src[b.pos:]) << (b.nb & 63)
		b.pos += int(63-b.nb) >> 3
		b.nb |= 56
		return true
	}
	if b.consumed() > len(b.src) {
		return false
	}
	for b.nb < 56 {
		if b.pos < len(b.src) {
			b.buf |= uint64(b.src[b.pos]) << (b.nb & 63)
		}
		b.pos++
		b.nb += 8
	}
	return true
}

// take consumes and returns the next n bits; the caller has refilled.
func (b *bitReader) take(n uint) uint {
	v := uint(b.buf & (1<<(n&63) - 1))
	b.buf >>= n & 63
	b.nb -= n
	return v
}

// flateDecoder is one member's decoding state: the dynamic tables and the
// scratch they are built from. It lives in a pooled inflater, so a warm
// inflate allocates nothing.
type flateDecoder struct {
	lit    [litTableSize]uint32
	dist   [distTableSize]uint32
	clen   [1 << clenRoot]uint32
	lens   [maxLitSyms + maxDistSyms]uint8
	sorted [288]uint16
}

// gunzip inflates the gzip member src into dst, which its ISIZE sized, and
// returns an error naming what it refuses: a header that sets a flag other
// than FEXTRA, a deflate stream that does not decode into dst (one using a
// code buildTable does not build included), one that does not end at the
// 8-byte trailer ending src, or a trailer whose CRC-32 or ISIZE disagrees
// with what it wrote. A refused member leaves dst's contents undefined.
func (d *flateDecoder) gunzip(src, dst []byte) error {
	const flagExtra = 1 << 2
	if len(src) < 10+8 || src[0] != 0x1f || src[1] != 0x8b || src[2] != 8 {
		return errors.New("not a deflate gzip member")
	}
	if src[3]&^flagExtra != 0 {
		return fmt.Errorf("header flags %#02x: a member sets none but FEXTRA", src[3])
	}
	at := 10
	if src[3] == flagExtra {
		at = 12 + int(binary.LittleEndian.Uint16(src[10:12]))
	}
	if at > len(src)-8 {
		return errors.New("header runs into the trailer")
	}
	n, end, ok := d.inflate(src[:len(src)-8], at, dst)
	if !ok {
		return fmt.Errorf("deflate stream does not decode into the %d bytes its ISIZE states", len(dst))
	}
	if end != len(src)-8 {
		return fmt.Errorf("deflate stream ends %d bytes before the trailer", len(src)-8-end)
	}
	trailer := src[end:]
	if isize := binary.LittleEndian.Uint32(trailer[4:]); isize != uint32(n) || n != len(dst) {
		return fmt.Errorf("inflates to %d bytes, its ISIZE states %d", n, isize)
	}
	if crc, want := crc32.ChecksumIEEE(dst), binary.LittleEndian.Uint32(trailer[:4]); crc != want {
		return fmt.Errorf("CRC-32 of its %d bytes is %08x, its trailer states %08x", n, crc, want)
	}
	return nil
}

// inflate decodes the deflate stream starting at src[at] into dst, and
// returns the bytes written and the offset just past the stream's last
// byte, or false if the stream is not well-formed, uses a code buildTable
// refuses, needs more than dst holds, or runs past src's end.
func (d *flateDecoder) inflate(src []byte, at int, dst []byte) (n, end int, ok bool) {
	b := bitReader{src: src, pos: at}
	o := 0
	for final := false; !final; {
		if !b.refill() {
			return 0, 0, false
		}
		final = b.take(1) == 1
		var lit *[litTableSize]uint32
		var dist *[distTableSize]uint32
		switch b.take(2) {
		case 0:
			if o, ok = stored(&b, dst, o); !ok {
				return 0, 0, false
			}
			continue
		case 1:
			lit, dist = fixedLit, fixedDist
		case 2:
			if !d.readTables(&b) {
				return 0, 0, false
			}
			lit, dist = &d.lit, &d.dist
		default:
			return 0, 0, false
		}
		if o, ok = decodeBlock(&b, lit, dist, dst, o); !ok {
			return 0, 0, false
		}
	}
	end = b.consumed()
	return o, end, end <= len(src)
}

// stored copies a stored block (RFC 1951 §3.2.4) into dst at o, and
// returns where the output now ends.
func stored(b *bitReader, dst []byte, o int) (int, bool) {
	b.take(b.nb & 7)
	p := b.consumed()
	if p > len(b.src)-4 {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint16(b.src[p:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(b.src[p+2:]) {
		return 0, false
	}
	p += 4
	if n > len(b.src)-p || n > len(dst)-o {
		return 0, false
	}
	copy(dst[o:o+n], b.src[p:p+n])
	b.pos, b.buf, b.nb = p+n, 0, 0
	return o + n, true
}

// readTables reads a dynamic block's code lengths (RFC 1951 §3.2.7) and
// builds its literal/length and distance tables, refusing what
// compress/flate refuses and the codes buildTable does not build.
func (d *flateDecoder) readTables(b *bitReader) bool {
	if !b.refill() {
		return false
	}
	nlit := int(b.take(5)) + 257
	ndist := int(b.take(5)) + 1
	nclen := int(b.take(4)) + 4
	if nlit > maxLitSyms || ndist > maxDistSyms {
		return false
	}
	var clens [19]uint8
	for i := range nclen {
		if b.nb < 3 && !b.refill() {
			return false
		}
		clens[codeOrder[i]] = uint8(b.take(3))
	}
	if !buildTable(d.clen[:], clenRoot, clens[:], clenPayload[:], &d.sorted) {
		return false
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if b.nb < clenRoot+7 && !b.refill() {
			return false
		}
		e := d.clen[b.buf&(1<<clenRoot-1)]
		if e&entryBase == 0 {
			return false
		}
		b.take(uint(e & 63))
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return false
			}
			rep, val = 3+int(b.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(b.take(3))
		default:
			rep = 11 + int(b.take(7))
		}
		if rep > len(lens)-i {
			return false
		}
		for range rep {
			lens[i] = val
			i++
		}
	}
	return buildTable(d.lit[:], litRoot, lens[:nlit], litPayload[:], &d.sorted) &&
		buildTable(d.dist[:], distRoot, lens[nlit:], distPayload[:], &d.sorted)
}

// decodeBlock decodes one Huffman-coded block's symbols into dst from o up
// to its end-of-block code, and returns where the output now ends. The bit
// state lives in locals while it runs: a refill leaves at least 56 bits,
// and one literal/length code with its extra bits and one distance code
// with its extra bits take at most 15+5+15+13 = 48.
func decodeBlock(b *bitReader, lit *[litTableSize]uint32, dist *[distTableSize]uint32, dst []byte, o int) (int, bool) {
	src, pos, buf, nb := b.src, b.pos, b.buf, b.nb
	for {
		if nb < 48 {
			if pos <= len(src)-8 {
				buf |= binary.LittleEndian.Uint64(src[pos:]) << (nb & 63)
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				b.pos, b.buf, b.nb = pos, buf, nb
				if !b.refill() {
					return 0, false
				}
				pos, buf, nb = b.pos, b.buf, b.nb
			}
		}
		e := lit[buf&(1<<litRoot-1)]
		if e&entryLink != 0 {
			buf >>= litRoot
			nb -= litRoot
			e = lit[int(e>>16)+int(buf&(1<<(e>>8&15)-1))]
		}
		buf >>= e & 63
		nb -= uint(e & 63)
		if e&entryLit != 0 {
			if o >= len(dst) {
				return 0, false
			}
			dst[o] = byte(e >> 16)
			o++
			continue
		}
		if e&entryBase == 0 {
			if e&entryEnd == 0 {
				return 0, false
			}
			b.pos, b.buf, b.nb = pos, buf, nb
			return o, true
		}
		extra := e >> 8 & 15
		length := int(e>>16) + int(buf&(1<<extra-1))
		buf >>= extra
		nb -= uint(extra)

		e = dist[buf&(1<<distRoot-1)]
		if e&entryLink != 0 {
			buf >>= distRoot
			nb -= distRoot
			e = dist[int(e>>16)+int(buf&(1<<(e>>8&15)-1))]
		}
		if e&entryBase == 0 {
			return 0, false
		}
		buf >>= e & 63
		nb -= uint(e & 63)
		extra = e >> 8 & 15
		distance := int(e>>16) + int(buf&(1<<extra-1))
		buf >>= extra
		nb -= uint(extra)

		if distance > o || length > len(dst)-o {
			return 0, false
		}
		from, end := o-distance, o+length
		if distance >= length {
			copy(dst[o:end], dst[from:from+length])
			o = end
			continue
		}
		// An overlapping match repeats the last distance bytes: each copy
		// doubles the run it copies from.
		for o < end {
			o += copy(dst[o:end], dst[from:o])
		}
	}
}
