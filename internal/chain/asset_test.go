package chain

import (
	"testing"
	"testing/quick"
)

func TestAssetString(t *testing.T) {
	cases := []struct {
		asset Asset
		want  string
	}{
		{EOSAsset(10000), "1.0000 EOS"},
		{EOSAsset(1), "0.0001 EOS"},
		{EOSAsset(0), "0.0000 EOS"},
		{EOSAsset(-10000), "-1.0000 EOS"},
		{EOSAsset(-1), "-0.0001 EOS"},
		{Asset{Amount: 1_000_000, Precision: 6, Symbol: "XRP"}, "1.000000 XRP"},
		{Asset{Amount: 10_000_000_000, Precision: 6, Symbol: "XTZ"}, "10000.000000 XTZ"},
		{Asset{Amount: 5, Precision: 0, Symbol: "VOTE"}, "5 VOTE"},
	}
	for _, c := range cases {
		if got := c.asset.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.asset, got, c.want)
		}
	}
}

func TestParseAsset(t *testing.T) {
	a, err := ParseAsset("1.0000 EOS")
	if err != nil {
		t.Fatal(err)
	}
	if a != EOSAsset(10000) {
		t.Fatalf("parsed %+v", a)
	}
	if _, err := ParseAsset("nonsense"); err == nil {
		t.Fatal("ParseAsset accepted garbage")
	}
	if _, err := ParseAsset("1.2.3 EOS"); err == nil {
		t.Fatal("ParseAsset accepted double dot")
	}
}

func TestAssetArithmetic(t *testing.T) {
	a := EOSAsset(10000)
	b := EOSAsset(2500)
	if got := a.Add(b); got.Amount != 12500 {
		t.Fatalf("Add = %v", got)
	}
	if got := a.MulRat(1, 10000); got.Amount != 1 {
		t.Fatalf("MulRat(1/10000) = %v", got) // the EIDOS 0.01% payout rule
	}
}

func TestAssetIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("adding EOS to XRP did not panic")
		}
	}()
	EOSAsset(1).Add(Asset{Amount: 1, Precision: 6, Symbol: "XRP"})
}

func TestAssetStringRoundTripProperty(t *testing.T) {
	f := func(raw int64) bool {
		// Limit to the range the simulators use; String/Parse are not meant
		// for amounts that overflow display scaling.
		raw %= 1_000_000_000_000_000
		a := EOSAsset(raw)
		parsed, err := ParseAsset(a.String())
		return err == nil && parsed == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAssetAddSubInverseProperty(t *testing.T) {
	f := func(x, y int64) bool {
		x %= 1 << 40
		y %= 1 << 40
		a, b := EOSAsset(x), EOSAsset(y)
		return a.Add(b).Add(EOSAsset(-y)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
