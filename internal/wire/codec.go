package wire

import (
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

// Codec holds the reusable state for one encode/decode stream: the JSON
// lexer with its unescape scratch, an intern table that makes repeated
// strings allocation-free to decode, and the sorted-key scratch the
// encoders need to render maps exactly as encoding/json does. A Codec is
// not safe for concurrent use; recycle through GetCodec/PutCodec.
type Codec struct {
	lex    lexer
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
// costs a map hit instead of an allocation.
func (c *Codec) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(c.intern) < maxInternEntries {
		c.intern[s] = s
	}
	return s
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
