package chain

import (
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

func TestHashBytesDeterministic(t *testing.T) {
	a := HashBytes([]byte("hello"))
	b := HashBytes([]byte("hello"))
	if a != b {
		t.Fatalf("same input hashed differently: %s vs %s", a, b)
	}
	c := HashBytes([]byte("hello!"))
	if a == c {
		t.Fatalf("different inputs collided: %s", a)
	}
}

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
	h := HashBytes([]byte("round trip"))
	parsed, err := hex.DecodeString(h.String())
	if err != nil {
		t.Fatalf("%q is not hex: %v", h.String(), err)
	}
	if Hash(parsed) != h {
		t.Fatalf("round trip mismatch: %x vs %s", parsed, h)
	}
}

func TestHashShortAndZero(t *testing.T) {
	var z Hash
	if !z.IsZero() {
		t.Fatal("zero hash not reported as zero")
	}
	h := HashBytes([]byte("x"))
	if h.IsZero() {
		t.Fatal("non-zero hash reported zero")
	}
	if len(h.Short()) != 12 {
		t.Fatalf("Short() length = %d, want 12", len(h.Short()))
	}
	if !strings.HasPrefix(h.String(), h.Short()) {
		t.Fatal("Short() is not a prefix of String()")
	}
}

func TestHashRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		h := HashBytes(data)
		parsed, err := hex.DecodeString(h.String())
		return err == nil && len(parsed) == len(h) && Hash(parsed) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
