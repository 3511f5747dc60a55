package wire

import (
	"encoding/binary"
	"sync"
)

// maxInternEntries caps a codec's intern table. Only strings an aggregator
// reads reach it — account, action and contract names, operation kinds,
// result codes, quantities, block timestamps — and all but the last two
// recur from the first blocks onward; ids, hashes and memos are stepped
// over and never enter. What the cap still bounds is a long crawl's
// account set and its per-block timestamps: once the table is full, a
// string it has not seen allocates instead of growing it.
const maxInternEntries = 1 << 16

// frontBits sizes a codec's front cache: 1<<frontBits direct-mapped slots
// in front of the intern table, 16 KiB of string headers per codec.
const frontBits = 10

// Codec holds the reusable state for one encode/decode stream: the JSON
// lexer with its unescape scratch, an intern table that makes repeated
// strings allocation-free to decode, and the sorted-key scratch the
// encoders need to render maps exactly as encoding/json does. A Codec is
// not safe for concurrent use; recycle through GetCodec/PutCodec.
type Codec struct {
	lex lexer
	// front holds the last string str returned per slot of frontSlot,
	// so the names a block repeats — contracts, action names, hot
	// accounts — cost a compare instead of a map lookup.
	front  [1 << frontBits]string
	intern map[string]string
	keys   []string
}

// NewCodec returns a fresh codec with an empty intern table.
func NewCodec() *Codec {
	return &Codec{intern: make(map[string]string)}
}

var codecPool = sync.Pool{New: func() any { return NewCodec() }}

// GetCodec takes a codec from the pool. Codecs keep their intern tables
// across uses, so a recycled codec decodes recurring strings without
// allocating.
func GetCodec() *Codec { return codecPool.Get().(*Codec) }

// PutCodec returns a codec to the pool.
func PutCodec(c *Codec) {
	c.lex.data = nil
	codecPool.Put(c)
}

// str copies b into an owned string, interning it so the next occurrence
// costs a front-cache compare or a map hit instead of an allocation.
func (c *Codec) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	slot := &c.front[frontSlot(b)]
	if *slot == string(b) {
		return *slot
	}
	s, ok := c.intern[string(b)]
	if !ok {
		s = string(b)
		if len(c.intern) < maxInternEntries {
			c.intern[s] = s
		}
	}
	*slot = s
	return s
}

// frontSlot hashes b's length and its first and last eight bytes (all of
// b when shorter) into a front-cache slot. Names longer than sixteen
// bytes that differ only in the middle share a slot and take turns in it.
func frontSlot(b []byte) uint {
	h := uint64(len(b))
	if len(b) >= 8 {
		// The tail word is scrambled so a name whose head and tail are the
		// same word does not hash to its length alone.
		h ^= binary.LittleEndian.Uint64(b) ^ binary.LittleEndian.Uint64(b[len(b)-8:])*0xbf58476d1ce4e5b9
	} else {
		for _, c := range b {
			h = h<<8 | uint64(c)
		}
	}
	return uint((h * 0x9e3779b97f4a7c15) >> (64 - frontBits))
}

// Struct arenas: one pool per block shape — the three projections the
// decoders fill and the three full shapes a block server fills for the
// encoders. Get hands out a struct whose slices and maps keep the capacity
// earlier uses grew; whoever fills one resets lengths and clears maps as it
// goes, so a recycled struct is indistinguishable from a fresh one
// field-wise while the steady-state path allocates nothing. After Put
// the caller must hold no reference to the struct, its slices or its maps;
// strings extracted from it remain valid.

// arena is a typed sync.Pool of *T.
type arena[T any] struct{ pool sync.Pool }

func (a *arena[T]) get() *T {
	if v, ok := a.pool.Get().(*T); ok {
		return v
	}
	return new(T)
}

func (a *arena[T]) put(v *T) {
	if v != nil {
		a.pool.Put(v)
	}
}

var (
	eosBlocks       arena[EOSBlock]
	tezosBlocks     arena[TezosBlock]
	xrpLedgers      arena[XRPLedger]
	eosBlockJSONs   arena[EOSBlockJSON]
	tezosBlockJSONs arena[TezosBlockJSON]
	xrpLedgerJSONs  arena[XRPLedgerJSON]
)

// GetEOSBlock takes a reusable decode-side block from the arena.
func GetEOSBlock() *EOSBlock { return eosBlocks.get() }

// PutEOSBlock returns a block to the arena.
func PutEOSBlock(b *EOSBlock) { eosBlocks.put(b) }

// GetTezosBlock takes a reusable decode-side block from the arena.
func GetTezosBlock() *TezosBlock { return tezosBlocks.get() }

// PutTezosBlock returns a block to the arena.
func PutTezosBlock(b *TezosBlock) { tezosBlocks.put(b) }

// GetXRPLedger takes a reusable decode-side ledger from the arena.
func GetXRPLedger() *XRPLedger { return xrpLedgers.get() }

// PutXRPLedger returns a ledger to the arena.
func PutXRPLedger(l *XRPLedger) { xrpLedgers.put(l) }

// GetEOSBlockJSON takes a reusable encode-side block from the arena.
func GetEOSBlockJSON() *EOSBlockJSON { return eosBlockJSONs.get() }

// PutEOSBlockJSON returns a block to the arena.
func PutEOSBlockJSON(b *EOSBlockJSON) { eosBlockJSONs.put(b) }

// GetTezosBlockJSON takes a reusable encode-side block from the arena.
func GetTezosBlockJSON() *TezosBlockJSON { return tezosBlockJSONs.get() }

// PutTezosBlockJSON returns a block to the arena.
func PutTezosBlockJSON(b *TezosBlockJSON) { tezosBlockJSONs.put(b) }

// GetXRPLedgerJSON takes a reusable encode-side ledger from the arena.
func GetXRPLedgerJSON() *XRPLedgerJSON { return xrpLedgerJSONs.get() }

// PutXRPLedgerJSON returns a ledger to the arena.
func PutXRPLedgerJSON(l *XRPLedgerJSON) { xrpLedgerJSONs.put(l) }

// Buffer is a pooled byte buffer for encoders and response writers.
type Buffer struct{ B []byte }

var bufferPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 8192)} }}

// maxPooledBuffer drops oversized buffers instead of pinning their memory
// in the pool.
const maxPooledBuffer = 4 << 20

// GetBuffer takes an empty buffer from the pool.
func GetBuffer() *Buffer {
	buf := bufferPool.Get().(*Buffer)
	buf.B = buf.B[:0]
	return buf
}

// PutBuffer returns a buffer to the pool.
func PutBuffer(buf *Buffer) {
	if buf == nil || cap(buf.B) > maxPooledBuffer {
		return
	}
	bufferPool.Put(buf)
}

// Raw payload recycling: fetch clients read block payloads into these
// buffers, the stream hands them to the consumer inside a collect.Block,
// and Block.Release returns them here once decoding extracted everything —
// the zero-copy transport loop of the hot path.

var rawPool sync.Pool

const (
	minPooledRaw = 256
	maxPooledRaw = 4 << 20
)

// GetRaw returns an empty byte slice with recycled capacity.
func GetRaw() []byte {
	if p, ok := rawPool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return make([]byte, 0, 16<<10)
}

// PutRaw recycles a payload buffer. The caller must be its only holder.
// The boxed slice header it costs is ~500x smaller than the payload
// allocation it saves.
func PutRaw(b []byte) {
	if cap(b) < minPooledRaw || cap(b) > maxPooledRaw {
		return
	}
	rawPool.Put(&b)
}
