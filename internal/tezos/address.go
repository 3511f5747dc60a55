package tezos

import (
	"strings"

	"repro/internal/chain"
)

// Address is a Tezos address: implicit accounts start with tz1 (derived from
// a key pair) and originated accounts with KT1 (created and managed by
// implicit accounts; they can act as smart contracts but cannot bake).
type Address string

// Base58check prefixes used by Tezos.
var (
	tz1Prefix = []byte{6, 161, 159}
	kt1Prefix = []byte{2, 90, 121}
)

// NewImplicitAddress derives a deterministic tz1 address from a seed label.
// The simulator uses labels like "baker-7" or "spammer-3" in place of key
// material; the hash plays the role of the public key hash.
func NewImplicitAddress(label string) Address {
	h := chain.HashOf("tz1", label)
	return Address(chain.Base58Check(tz1Prefix, h[:20]))
}

// NewOriginatedAddress derives a deterministic KT1 address.
func NewOriginatedAddress(label string) Address {
	h := chain.HashOf("kt1", label)
	return Address(chain.Base58Check(kt1Prefix, h[:20]))
}

// IsImplicit reports whether the address is a tz1 account.
func (a Address) IsImplicit() bool { return strings.HasPrefix(string(a), "tz1") }

// IsOriginated reports whether the address is a KT1 contract.
func (a Address) IsOriginated() bool { return strings.HasPrefix(string(a), "KT1") }

// Account is the ledger record behind an address.
type Account struct {
	Address   Address
	Balance   int64 // mutez
	Revealed  bool  // manager key revealed (required before most operations)
	Activated bool  // fundraiser accounts must be activated first
	Delegate  Address
	Manager   Address // for originated accounts
	Counter   int64   // anti-replay counter
}
