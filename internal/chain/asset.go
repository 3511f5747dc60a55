package chain

import (
	"fmt"
	"strconv"
	"strings"
)

// Asset is a fixed-point amount of a named token, mirroring the EOS asset
// representation ("1.0000 EOS" = Amount 10000, Precision 4, Symbol "EOS").
// XRP drops and Tezos mutez fit the same shape with precision 6.
type Asset struct {
	Amount    int64  // raw integer amount, scaled by 10^Precision
	Precision uint8  // number of decimal places
	Symbol    string // ticker, e.g. "EOS", "XTZ", "XRP", "EIDOS"
}

// NewAsset builds an Asset from a whole-unit float-free pair: units and the
// fractional raw remainder are combined as units*10^precision + frac.
func NewAsset(units int64, frac int64, precision uint8, symbol string) Asset {
	return Asset{Amount: units*pow10(precision) + frac, Precision: precision, Symbol: symbol}
}

func pow10(p uint8) int64 {
	n := int64(1)
	for i := uint8(0); i < p; i++ {
		n *= 10
	}
	return n
}

// EOSAsset returns an EOS-denominated asset with the canonical 4 decimals.
func EOSAsset(raw int64) Asset { return Asset{Amount: raw, Precision: 4, Symbol: "EOS"} }

// Add returns a + b. It panics if symbols or precisions differ: adding
// unrelated tokens is always a programming error in the simulators.
func (a Asset) Add(b Asset) Asset {
	a.mustMatch(b)
	a.Amount += b.Amount
	return a
}

// MulRat scales the amount by num/den using integer arithmetic, truncating
// toward zero. den must be positive.
func (a Asset) MulRat(num, den int64) Asset {
	if den <= 0 {
		panic("chain: MulRat with non-positive denominator")
	}
	a.Amount = a.Amount * num / den
	return a
}

func (a Asset) mustMatch(b Asset) {
	if a.Symbol != b.Symbol || a.Precision != b.Precision {
		panic(fmt.Sprintf("chain: incompatible assets %s and %s", a, b))
	}
}

// String renders the asset in EOS style: "1.0000 EOS".
func (a Asset) String() string {
	scale := pow10(a.Precision)
	units := a.Amount / scale
	frac := a.Amount % scale
	sign := ""
	if a.Amount < 0 {
		sign, units, frac = "-", -units, -frac
		if a.Amount > -scale { // e.g. -0.5: units is 0, keep explicit sign
			units = 0
		}
	}
	if a.Precision == 0 {
		return fmt.Sprintf("%s%d %s", sign, units, a.Symbol)
	}
	return fmt.Sprintf("%s%d.%0*d %s", sign, units, a.Precision, frac, a.Symbol)
}

// ParseAsset parses the EOS-style rendering produced by String.
func ParseAsset(s string) (Asset, error) {
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return Asset{}, fmt.Errorf("chain: asset %q must be \"<amount> <symbol>\"", s)
	}
	num, sym := fields[0], fields[1]
	neg := strings.HasPrefix(num, "-")
	num = strings.TrimPrefix(num, "-")
	intPart := num
	fracPart := ""
	if i := strings.IndexByte(num, '.'); i >= 0 {
		intPart, fracPart = num[:i], num[i+1:]
	}
	if intPart == "" {
		intPart = "0"
	}
	units, err := strconv.ParseInt(intPart, 10, 64)
	if err != nil {
		return Asset{}, fmt.Errorf("chain: bad asset integer part %q: %w", intPart, err)
	}
	precision := uint8(len(fracPart))
	var frac int64
	if fracPart != "" {
		frac, err = strconv.ParseInt(fracPart, 10, 64)
		if err != nil {
			return Asset{}, fmt.Errorf("chain: bad asset fraction %q: %w", fracPart, err)
		}
	}
	a := Asset{Amount: units*pow10(precision) + frac, Precision: precision, Symbol: sym}
	if neg {
		a.Amount = -a.Amount
	}
	return a, nil
}
