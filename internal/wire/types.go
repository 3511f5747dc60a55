// Package wire owns the three chains' wire JSON shapes and hand-rolled,
// pooled codecs for them. The measurement pipeline's throughput ceiling at
// paper scale (billions of EOS/Tezos/XRP transactions) is not the network
// but CPU spent reflect-marshalling blocks in rpcserve and
// reflect-unmarshalling them again in collect; this package replaces both
// directions with allocation-free encoders/decoders over reused []byte
// buffers and struct arenas, with encoding/json kept as a cross-checked
// equivalence oracle in tests.
//
// The two directions do not share their structs. The encoders render the
// full …JSON shapes (EOSBlockJSON and friends), which are also what
// encoding/json unmarshals into; the package names no simulator type —
// whoever serves blocks (internal/rpcserve) fills the shapes itself. The decoders fill a projection of them
// (EOSBlock, TezosBlock, XRPLedger): exactly the fields some aggregator in
// internal/core reads. Every other value of a payload is held to the same
// grammar and type as before — a string-or-null where the full shape has a
// string, an in-range integer where it has one, an amount object where it
// has an amount — and stepped over: not copied, not interned, not kept. A
// payload the fast scanner refuses is unmarshalled into the full shape by
// encoding/json, whose verdict is final, and projected by the chain's
// Project function, which is also the reference the differential tests
// and fuzz targets hold the fast scanner to. A figure that needs a field
// the projection lacks adds it to the projected type, its decoder case
// and its Project function; nothing else moves.
//
// Ownership rules (the "allocation budget" contract, see DESIGN.md):
//
//   - A struct obtained from a Get function (GetEOSBlock, GetEOSBlockJSON
//     and friends) is exclusively owned by the caller until it is returned
//     with the matching Put. After Put, the caller must not touch the
//     struct, its slices or its maps — only the strings extracted from it,
//     which are immutable and safe to retain forever.
//   - A Codec is exclusively owned between GetCodec and PutCodec. Byte
//     views produced while decoding never escape the codec; every string
//     stored into a decoded struct is an owned copy, interned, and valid
//     UTF-8 (invalid bytes become U+FFFD, as encoding/json decodes them).
//     Only strings that are read are interned, so the table holds account
//     names, action names and kinds, never ids, hashes or memos. The one
//     view handed out is XRPEnvelope.Result, and it is a span of the
//     caller's own frame, not of anything the codec holds.
//   - Raw payload buffers recycle through GetRaw/PutRaw; a buffer handed
//     to PutRaw must have no other holders.
package wire

// EOSBlockJSON is the wire shape of one EOS block, structurally close to
// nodeos (transactions wrap a trx object carrying actions).
type EOSBlockJSON struct {
	BlockNum     uint32       `json:"block_num"`
	ID           string       `json:"id"`
	Previous     string       `json:"previous"`
	Timestamp    string       `json:"timestamp"`
	Producer     string       `json:"producer"`
	Transactions []EOSTrxJSON `json:"transactions"`
}

// EOSTrxJSON is one transaction receipt.
type EOSTrxJSON struct {
	Status string `json:"status"`
	Trx    struct {
		ID          string `json:"id"`
		Transaction struct {
			Actions []EOSActionJSON `json:"actions"`
		} `json:"transaction"`
	} `json:"trx"`
}

// EOSActionJSON is one action.
type EOSActionJSON struct {
	Account       string              `json:"account"`
	Name          string              `json:"name"`
	Authorization []map[string]string `json:"authorization"`
	Data          map[string]string   `json:"data"`
	Inline        bool                `json:"inline,omitempty"`
}

// TezosBlockJSON is the wire shape of one Tezos block: a header plus
// operations.
type TezosBlockJSON struct {
	Level       int64                `json:"level"`
	Hash        string               `json:"hash"`
	Predecessor string               `json:"predecessor"`
	Timestamp   string               `json:"timestamp"`
	Baker       string               `json:"baker"`
	Operations  []TezosOperationJSON `json:"operations"`
}

// TezosOperationJSON is one operation.
type TezosOperationJSON struct {
	Kind        string `json:"kind"`
	Source      string `json:"source,omitempty"`
	Destination string `json:"destination,omitempty"`
	Amount      int64  `json:"amount,omitempty"`
	Fee         int64  `json:"fee,omitempty"`
	Level       int64  `json:"level,omitempty"`
	SlotCount   int    `json:"slot_count,omitempty"`
	Proposal    string `json:"proposal,omitempty"`
	Ballot      string `json:"ballot,omitempty"`
	Rolls       int64  `json:"rolls,omitempty"`
	Delegate    string `json:"delegate,omitempty"`
}

// XRPLedgerJSON is the wire shape of one closed XRP ledger.
type XRPLedgerJSON struct {
	LedgerIndex  int64       `json:"ledger_index"`
	LedgerHash   string      `json:"ledger_hash"`
	ParentHash   string      `json:"parent_hash"`
	CloseTime    string      `json:"close_time_human"`
	TxCount      int         `json:"transaction_count"`
	Transactions []XRPTxJSON `json:"transactions,omitempty"`
}

// XRPTxJSON is one transaction with its metadata result.
type XRPTxJSON struct {
	Hash            string         `json:"hash"`
	TransactionType string         `json:"TransactionType"`
	Account         string         `json:"Account"`
	Destination     string         `json:"Destination,omitempty"`
	DestinationTag  uint32         `json:"DestinationTag,omitempty"`
	Fee             int64          `json:"Fee"`
	Sequence        uint32         `json:"Sequence"`
	Amount          *XRPAmountJSON `json:"Amount,omitempty"`
	TakerGets       *XRPAmountJSON `json:"TakerGets,omitempty"`
	TakerPays       *XRPAmountJSON `json:"TakerPays,omitempty"`
	LimitAmount     *XRPAmountJSON `json:"LimitAmount,omitempty"`
	DeliveredAmount *XRPAmountJSON `json:"delivered_amount,omitempty"`
	OfferSequence   uint32         `json:"OfferSequence,omitempty"`
	Result          string         `json:"meta_TransactionResult"`
	// Executed and RestingSequence mirror the simulator's offer metadata;
	// rippled exposes the same information through tx metadata nodes.
	Executed        bool   `json:"executed,omitempty"`
	RestingSequence uint32 `json:"resting_sequence,omitempty"`
}

// XRPAmountJSON carries either drops (native) or an IOU triple.
type XRPAmountJSON struct {
	Currency string `json:"currency"`
	Issuer   string `json:"issuer,omitempty"`
	Value    int64  `json:"value"`
}

// EOSBlock is the decode-side projection of an EOS block: what
// internal/core's EOS aggregator reads of an EOSBlockJSON.
type EOSBlock struct {
	Timestamp    string
	Transactions []EOSTrx
}

// EOSTrx is one transaction of an EOSBlock.
type EOSTrx struct {
	Actions []EOSAction
}

// EOSAction is one action of an EOSTrx. Actor is authorization[0].actor;
// From, To, Quantity, Buyer and Seller are the data members of those
// names. Each is "" when the payload has no such member.
type EOSAction struct {
	Account, Name, Actor              string
	From, To, Quantity, Buyer, Seller string
}

// TezosBlock is the decode-side projection of a TezosBlockJSON.
type TezosBlock struct {
	Level      int64
	Timestamp  string
	Operations []TezosOperation
}

// TezosOperation is one operation of a TezosBlock.
type TezosOperation struct {
	Kind, Source, Destination, Proposal, Ballot string
	Rolls                                       int64
}

// XRPLedger is the decode-side projection of an XRPLedgerJSON.
type XRPLedger struct {
	CloseTime    string
	Transactions []XRPTx
}

// XRPTx is one transaction of an XRPLedger.
type XRPTx struct {
	TransactionType, Account, Destination, Result string
	DestinationTag, Sequence, RestingSequence     uint32
	Executed                                      bool
	Amount, DeliveredAmount                       XRPAmount
}

// XRPAmount is an amount field of an XRPTx, by value: Set is false where
// the full shape holds a nil pointer (the member is absent or null).
type XRPAmount struct {
	Set              bool
	Currency, Issuer string
	Value            int64
}

// EOSTimestampLayout is the nodeos block timestamp format.
const EOSTimestampLayout = "2006-01-02T15:04:05.000"
