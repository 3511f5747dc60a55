package chain

import (
	"crypto/sha256"
	"math/big"
)

// base58 implements the Bitcoin-style base58check encoding used for Tezos
// (tz1…, KT1…) and, in a variant alphabet, XRP (r…) addresses. The simulators
// derive addresses deterministically from seeds, so round-trip fidelity is
// what matters here, not key management.

const btcAlphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

// XRP uses a permuted alphabet beginning with 'r'.
const xrpAlphabet = "rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz"

func b58Encode(input []byte, alphabet string) string {
	x := new(big.Int).SetBytes(input)
	base := big.NewInt(58)
	mod := new(big.Int)
	var out []byte
	for x.Sign() > 0 {
		x.DivMod(x, base, mod)
		out = append(out, alphabet[mod.Int64()])
	}
	// Leading zero bytes become leading "zero digit" characters.
	for _, b := range input {
		if b != 0 {
			break
		}
		out = append(out, alphabet[0])
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return string(out)
}

func checksum(payload []byte) []byte {
	h1 := sha256.Sum256(payload)
	h2 := sha256.Sum256(h1[:])
	return h2[:4]
}

// Base58Check encodes prefix||payload with a 4-byte double-SHA256 checksum
// using the Bitcoin alphabet (Tezos convention).
func Base58Check(prefix, payload []byte) string {
	full := append(append([]byte{}, prefix...), payload...)
	full = append(full, checksum(full)...)
	return b58Encode(full, btcAlphabet)
}

// XRPBase58Check encodes payload with version byte 0 using the XRP alphabet,
// producing classic r… addresses.
func XRPBase58Check(payload []byte) string {
	full := append([]byte{0}, payload...)
	full = append(full, checksum(full)...)
	return b58Encode(full, xrpAlphabet)
}
