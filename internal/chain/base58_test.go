package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

var tz1Prefix = []byte{6, 161, 159} // Tezos ed25519 public key hash prefix

func TestBase58CheckRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 20)
	s := Base58Check(tz1Prefix, payload)
	if !strings.HasPrefix(s, "tz1") {
		t.Fatalf("tz1 prefix bytes produced %q", s)
	}
	got, err := DecodeBase58Check(s, tz1Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %x vs %x", got, payload)
	}
}

func TestBase58CheckDetectsCorruption(t *testing.T) {
	s := Base58Check(tz1Prefix, bytes.Repeat([]byte{1}, 20))
	// Flip one character to another alphabet character.
	var corrupted string
	for i := len(s) - 1; i >= 0; i-- {
		repl := byte('2')
		if s[i] == repl {
			repl = '3'
		}
		corrupted = s[:i] + string(repl) + s[i+1:]
		break
	}
	if _, err := DecodeBase58Check(corrupted, tz1Prefix); err == nil {
		t.Fatal("corrupted base58check string decoded successfully")
	}
}

func TestXRPAddressShape(t *testing.T) {
	payload := bytes.Repeat([]byte{0x42}, 20)
	addr := XRPBase58Check(payload)
	if !strings.HasPrefix(addr, "r") {
		t.Fatalf("XRP address %q does not start with r", addr)
	}
	got, err := DecodeXRPBase58Check(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %x vs %x", got, payload)
	}
}

func TestXRPAddressRejectsBitcoinAlphabet(t *testing.T) {
	// 'l' is absent from the Bitcoin alphabet but present in XRP's; '0' and
	// 'O' are in neither.
	if _, err := DecodeXRPBase58Check("r0O"); err == nil {
		t.Fatal("decoded address containing illegal characters")
	}
}

func TestBase58LeadingZeros(t *testing.T) {
	payload := append([]byte{0, 0, 0}, 0x7f)
	s := b58Encode(payload, btcAlphabet)
	got, err := b58Decode(s, btcAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("leading zeros lost: %x vs %x", got, payload)
	}
}

func TestBase58CheckRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 64 {
			payload = payload[:64]
		}
		s := Base58Check(tz1Prefix, payload)
		got, err := DecodeBase58Check(s, tz1Prefix)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXRPBase58RoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 64 {
			payload = payload[:64]
		}
		s := XRPBase58Check(payload)
		got, err := DecodeXRPBase58Check(s)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The simulators only encode addresses; these decoders exist to check the
// encoder round-trips.

var (
	errChecksum = errors.New("chain: base58check checksum mismatch")
	errAlphabet = errors.New("chain: invalid base58 character")
)

func b58Decode(s string, alphabet string) ([]byte, error) {
	idx := make(map[byte]int64, 58)
	for i := 0; i < len(alphabet); i++ {
		idx[alphabet[i]] = int64(i)
	}
	x := new(big.Int)
	base := big.NewInt(58)
	for i := 0; i < len(s); i++ {
		v, ok := idx[s[i]]
		if !ok {
			return nil, fmt.Errorf("%w: %q", errAlphabet, s[i])
		}
		x.Mul(x, base)
		x.Add(x, big.NewInt(v))
	}
	out := x.Bytes()
	// Restore leading zeros.
	for i := 0; i < len(s) && s[i] == alphabet[0]; i++ {
		out = append([]byte{0}, out...)
	}
	return out, nil
}

// DecodeBase58Check reverses Base58Check, returning the payload after
// stripping prefix and validating the checksum.
func DecodeBase58Check(s string, prefix []byte) ([]byte, error) {
	raw, err := b58Decode(s, btcAlphabet)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(prefix)+4 {
		return nil, fmt.Errorf("chain: base58check payload too short (%d bytes)", len(raw))
	}
	body, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if string(checksum(body)) != string(sum) {
		return nil, errChecksum
	}
	for i := range prefix {
		if body[i] != prefix[i] {
			return nil, fmt.Errorf("chain: base58check prefix mismatch")
		}
	}
	return body[len(prefix):], nil
}

// DecodeXRPBase58Check reverses XRPBase58Check.
func DecodeXRPBase58Check(s string) ([]byte, error) {
	raw, err := b58Decode(s, xrpAlphabet)
	if err != nil {
		return nil, err
	}
	if len(raw) < 5 {
		return nil, fmt.Errorf("chain: xrp address too short")
	}
	body, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if string(checksum(body)) != string(sum) {
		return nil, errChecksum
	}
	if body[0] != 0 {
		return nil, fmt.Errorf("chain: xrp address version %d != 0", body[0])
	}
	return body[1:], nil
}
