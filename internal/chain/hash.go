// Package chain provides primitives shared by the EOS, Tezos and XRP ledger
// simulators: content hashes, a simulated block clock, deterministic
// randomness, fixed-point asset arithmetic and base58 encoding.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Hash is a 32-byte content hash used for block and transaction identifiers
// on all three simulated chains.
type Hash [32]byte

// HashOf hashes the concatenation of the string representations of parts.
// It is a convenience for deriving deterministic identifiers from structured
// fields without defining a serialization for every type.
func HashOf(parts ...any) Hash {
	h := sha256.New()
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			h.Write([]byte(v))
		case uint64:
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		case int64:
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		case int:
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		default:
			fmt.Fprintf(h, "%v", v)
		}
		h.Write([]byte{0}) // field separator so ("ab","c") != ("a","bc")
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// String returns the lowercase hex encoding of the hash, built on the stack
// so that the returned string is the only allocation.
func (h Hash) String() string {
	var b [2 * len(h)]byte
	hex.Encode(b[:], h[:])
	return string(b[:])
}
