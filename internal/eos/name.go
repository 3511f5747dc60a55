// Package eos simulates the EOS blockchain at the fidelity the paper's
// measurements require: named accounts, action-based transactions executed
// by contracts, the eosio.token standard, the CPU/NET/RAM resource market
// with congestion mode, a 21-producer DPoS schedule, and the EIDOS airdrop
// contract whose "boomerang" transactions dominated the chain after
// November 1, 2019.
package eos

import (
	"fmt"
)

// Name is EOS's base32-packed account and action identifier: up to 12
// characters from ".12345abcdefghijklmnopqrstuvwxyz", packed into a uint64
// exactly as eosio does (5 bits per character, 4 bits for the 13th).
type Name uint64

const nameAlphabet = ".12345abcdefghijklmnopqrstuvwxyz"

func charToSymbol(c byte) (uint64, error) {
	switch {
	case c >= 'a' && c <= 'z':
		return uint64(c-'a') + 6, nil
	case c >= '1' && c <= '5':
		return uint64(c-'1') + 1, nil
	case c == '.':
		return 0, nil
	}
	return 0, fmt.Errorf("eos: invalid name character %q", c)
}

// ParseName converts a string into a packed Name. Names longer than 13
// characters or containing invalid characters are rejected.
func ParseName(s string) (Name, error) {
	if len(s) > 13 {
		return 0, fmt.Errorf("eos: name %q longer than 13 chars", s)
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		c, err := charToSymbol(s[i])
		if err != nil {
			return 0, fmt.Errorf("eos: name %q: %w", s, err)
		}
		if i < 12 {
			n |= (c & 0x1f) << uint(64-5*(i+1))
		} else {
			if c > 0x0f {
				return 0, fmt.Errorf("eos: 13th char of %q out of range", s)
			}
			n |= c & 0x0f
		}
	}
	return Name(n), nil
}

// MustName is ParseName for compile-time-known names; it panics on error.
func MustName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String unpacks the name back into its textual form, trimming the trailing
// dots that padding introduces. It builds the name on the stack and
// allocates only the string it returns.
func (n Name) String() string {
	if n == 0 {
		return ""
	}
	var b [13]byte
	v := uint64(n)
	for i := 0; i < 12; i++ {
		b[i] = nameAlphabet[(v>>uint(64-5*(i+1)))&0x1f]
	}
	b[12] = nameAlphabet[v&0x0f]
	end := len(b)
	for end > 0 && b[end-1] == '.' {
		end--
	}
	return string(b[:end])
}

// Valid reports whether the packed representation round-trips, i.e. the name
// obeys the suffix-padding rules.
func (n Name) Valid() bool {
	p, err := ParseName(n.String())
	return err == nil && p == n
}

// Well-known system and application accounts used throughout the simulation.
// The application accounts are the top-traffic contracts from the paper's
// Figures 4 and 5.
var (
	SystemAccount = MustName("eosio")
	TokenAccount  = MustName("eosio.token")
	MsigAccount   = MustName("eosio.msig")
	WrapAccount   = MustName("eosio.wrap")
	RexAccount    = MustName("eosio.rex")
	RAMAccount    = MustName("eosio.ram")
	StakeAccount  = MustName("eosio.stake")
	NamesAccount  = MustName("eosio.names")
	EIDOSContract = MustName("eidosonecoin")
	PornSite      = MustName("pornhashbaby")
	BetDiceGroup  = MustName("betdicegroup")
	BetDiceTasks  = MustName("betdicetasks")
	BetDiceAdmin  = MustName("betdiceadmin")
	BetDiceBacca  = MustName("betdicebacca")
	BetDiceSicbo  = MustName("betdicesicbo")
	WhaleExTrust  = MustName("whaleextrust")
	SanguoGame    = MustName("eossanguoone")
	MyKeyPostman  = MustName("mykeypostman")
	MyKeyLogic    = MustName("mykeylogica1")
	BlueBetProxy  = MustName("bluebetproxy")
	BlueBetTexas  = MustName("bluebettexas")
	BlueBetJacks  = MustName("bluebetjacks")
	BlueBetBcrat  = MustName("bluebetbcrat")
	LynxToken     = MustName("lynxtoken123")
)
