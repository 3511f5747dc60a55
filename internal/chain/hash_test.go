package chain

import (
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestHashOfFieldSeparation(t *testing.T) {
	// The field separator must make ("ab","c") differ from ("a","bc").
	if HashOf("ab", "c") == HashOf("a", "bc") {
		t.Fatal("HashOf does not separate fields")
	}
	if HashOf("a", "b") == HashOf("a", "b", "") {
		t.Fatal("HashOf ignores trailing empty field")
	}
}

func TestHashOfMixedTypes(t *testing.T) {
	h1 := HashOf("block", uint64(42), int64(-1))
	h2 := HashOf("block", uint64(42), int64(-1))
	if h1 != h2 {
		t.Fatal("mixed-type HashOf not deterministic")
	}
	if HashOf("block", uint64(42)) == HashOf("block", uint64(43)) {
		t.Fatal("uint64 field not hashed")
	}
}

func TestHashStringRoundTrip(t *testing.T) {
	h := HashOf("round trip")
	parsed, err := hex.DecodeString(h.String())
	if err != nil {
		t.Fatalf("%q is not hex: %v", h.String(), err)
	}
	if Hash(parsed) != h {
		t.Fatalf("round trip mismatch: %x vs %s", parsed, h)
	}
}

func TestHashRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		h := HashOf(string(data))
		parsed, err := hex.DecodeString(h.String())
		return err == nil && len(parsed) == len(h) && Hash(parsed) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
