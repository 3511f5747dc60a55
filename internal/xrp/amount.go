package xrp

import "repro/internal/chain"

// Address is an XRP Ledger classic address (r…). The paper's clustering
// leans on account metadata (usernames, parent accounts) layered on top of
// these addresses by the explorer.
type Address string

// NewAddress derives a deterministic address from a seed label, standing in
// for a real keypair-derived account ID.
func NewAddress(label string) Address {
	h := chain.HashOf("xrp-addr", label)
	return Address(chain.XRPBase58Check(h[:20]))
}

// SpecialAddresses are the handful of addresses not derived from key pairs;
// funds sent there are permanently lost (paper §2.3.3).
var SpecialAddresses = map[Address]string{
	"rrrrrrrrrrrrrrrrrrrrrhoLvTp": "ACCOUNT_ZERO",
	"rrrrrrrrrrrrrrrrrrrrBZbvji":  "ACCOUNT_ONE",
	"rrrrrrrrrrrrrrrrrNAMEtxvNvQ": "Ripple Name reservation",
	"rrrrrrrrrrrrrrrrrrrn5RM1rHd": "NaN address",
}

// XRPCurrency is the native currency code.
const XRPCurrency = "XRP"

// DropsPerXRP scales XRP display units to drops; IOU amounts reuse the same
// 6-decimal fixed point for uniform arithmetic.
const DropsPerXRP = 1_000_000

// Amount is an XRP Ledger amount: either native XRP (Issuer empty) in drops,
// or an issuer-specific IOU in 6-decimal fixed point. The issuer dependence
// is the crux of §4.3: a "BTC" from Bitstamp and a "BTC" from a random
// account are entirely different assets with wildly different XRP rates.
type Amount struct {
	Currency string  `json:"currency"`
	Issuer   Address `json:"issuer,omitempty"`
	Value    int64   `json:"value"` // 6-decimal fixed point (drops for XRP)
}

// XRP returns a native amount from whole-XRP units.
func XRP(units int64) Amount {
	return Amount{Currency: XRPCurrency, Value: units * DropsPerXRP}
}

// Drops returns a native amount from raw drops.
func Drops(d int64) Amount { return Amount{Currency: XRPCurrency, Value: d} }

// IOU returns an issuer-specific amount from whole units.
func IOU(currency string, issuer Address, units int64) Amount {
	return Amount{Currency: currency, Issuer: issuer, Value: units * DropsPerXRP}
}

// IsNative reports whether the amount is XRP.
func (a Amount) IsNative() bool { return a.Currency == XRPCurrency && a.Issuer == "" }

// SameAsset reports whether two amounts denominate the same asset
// (currency and issuer both match).
func (a Amount) SameAsset(b Amount) bool {
	return a.Currency == b.Currency && a.Issuer == b.Issuer
}

// WithValue returns a copy carrying the given raw value.
func (a Amount) WithValue(v int64) Amount { a.Value = v; return a }

// AssetKey identifies an asset (currency+issuer) for map keys.
type AssetKey struct {
	Currency string
	Issuer   Address
}

// Key returns the amount's asset key.
func (a Amount) Key() AssetKey { return AssetKey{Currency: a.Currency, Issuer: a.Issuer} }
