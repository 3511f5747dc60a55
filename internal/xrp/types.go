// Package xrp simulates the XRP Ledger at the fidelity the paper's
// measurements require: XRP and issuer-specific IOU amounts, trust lines,
// the on-ledger decentralized exchange with offer crossing, escrows,
// payments with failure codes (PATH_DRY, tecUNFUNDED_OFFER, …) and account
// activation with parent tracking (the basis for the paper's clustering).
package xrp

import (
	"time"

	"repro/internal/chain"
)

// TxType enumerates the predefined transaction types the paper tabulates in
// Figure 1 for XRP.
type TxType string

// The transaction types observed in the dataset.
const (
	TxPayment              TxType = "Payment"
	TxOfferCreate          TxType = "OfferCreate"
	TxOfferCancel          TxType = "OfferCancel"
	TxTrustSet             TxType = "TrustSet"
	TxAccountSet           TxType = "AccountSet"
	TxSignerListSet        TxType = "SignerListSet"
	TxSetRegularKey        TxType = "SetRegularKey"
	TxEscrowCreate         TxType = "EscrowCreate"
	TxEscrowFinish         TxType = "EscrowFinish"
	TxPaymentChannelCreate TxType = "PaymentChannelCreate"
	TxPaymentChannelClaim  TxType = "PaymentChannelClaim"
	TxEnableAmendment      TxType = "EnableAmendment"
)

// ResultCode is the engine result recorded with every transaction. Unlike
// EOS, the XRP ledger records failed transactions on-chain: their only
// effect is the fee deduction, which is why the paper can measure the 10.7 %
// failure share directly.
type ResultCode string

// Result codes used by the simulator (a subset of rippled's).
const (
	TesSUCCESS          ResultCode = "tesSUCCESS"
	TecPATH_DRY         ResultCode = "tecPATH_DRY"
	TecUNFUNDED_OFFER   ResultCode = "tecUNFUNDED_OFFER"
	TecUNFUNDED_PAYMENT ResultCode = "tecUNFUNDED_PAYMENT"
	TecNO_DST           ResultCode = "tecNO_DST"
	TecNO_LINE          ResultCode = "tecNO_LINE"
	TecNO_ENTRY         ResultCode = "tecNO_ENTRY"
	TecDST_TAG_NEEDED   ResultCode = "tecDST_TAG_NEEDED"
	TecNO_PERMISSION    ResultCode = "tecNO_PERMISSION"
	TecEXPIRED          ResultCode = "tecEXPIRED"
	TemBAD_AMOUNT       ResultCode = "temBAD_AMOUNT"
	TemBAD_ACCOUNT      ResultCode = "temBAD_ACCOUNT"
	TerNO_ACCOUNT       ResultCode = "terNO_ACCOUNT"
)

// Success reports whether the code is tesSUCCESS.
func (r ResultCode) Success() bool { return r == TesSUCCESS }

// Included reports whether a transaction with this code lands in the ledger
// (tes and tec classes do; tem/ter malformed ones do not).
func (r ResultCode) Included() bool {
	return r.Success() || (len(r) > 3 && r[:3] == "tec")
}

// Transaction is one XRP Ledger transaction. Fields are a union across
// types; unused fields stay zero.
type Transaction struct {
	ID       chain.Hash `json:"hash"`
	Type     TxType     `json:"TransactionType"`
	Account  Address    `json:"Account"`
	Fee      int64      `json:"Fee"` // drops
	Sequence uint32     `json:"Sequence"`

	// Payment fields.
	Destination    Address `json:"Destination,omitempty"`
	DestinationTag uint32  `json:"DestinationTag,omitempty"`
	Amount         Amount  `json:"Amount,omitempty"`
	// SendMax, when set to a different asset than Amount, requests a
	// cross-currency payment bridged through the DEX: the sender spends up
	// to SendMax of one asset so the destination receives Amount of
	// another. Insufficient book liquidity fails with tecPATH_DRY.
	SendMax *Amount `json:"SendMax,omitempty"`
	// DeliveredAmount is what actually arrived (set on success).
	DeliveredAmount Amount `json:"delivered_amount,omitempty"`

	// Offer fields.
	TakerGets     Amount    `json:"TakerGets,omitempty"`
	TakerPays     Amount    `json:"TakerPays,omitempty"`
	OfferSequence uint32    `json:"OfferSequence,omitempty"`
	Expiration    time.Time `json:"Expiration,omitempty"`

	// TrustSet field.
	LimitAmount Amount `json:"LimitAmount,omitempty"`

	// Escrow fields.
	FinishAfter time.Time `json:"FinishAfter,omitempty"`
	Owner       Address   `json:"Owner,omitempty"`

	// Result is assigned when the transaction is applied.
	Result ResultCode `json:"meta_TransactionResult"`
	// Executed is set on OfferCreate results when any amount crossed at
	// placement time; fills that happen later (as maker) are visible
	// through the exchange records instead.
	Executed bool `json:"-"`
	// RestingSequence is the sequence under which the residual offer rests
	// on the book (0 when fully consumed or never rested).
	RestingSequence uint32 `json:"-"`
}

// Ledger is one closed XRP ledger version.
type Ledger struct {
	Index        int64         `json:"ledger_index"`
	Hash         chain.Hash    `json:"ledger_hash"`
	ParentHash   chain.Hash    `json:"parent_hash"`
	CloseTime    time.Time     `json:"close_time"`
	Transactions []Transaction `json:"transactions"`
}
