package wire

import (
	"encoding/json"
	"math"
)

// AppendXRPLedger renders l as rippled-style ledger JSON, byte-identical to
// encoding/json.Marshal of the same struct, appending to dst.
func (c *Codec) AppendXRPLedger(dst []byte, l *XRPLedgerJSON) []byte {
	dst = append(dst, `{"ledger_index":`...)
	dst = appendInt(dst, l.LedgerIndex)
	dst = appendKey(dst, "ledger_hash")
	dst = appendJSONString(dst, l.LedgerHash)
	dst = appendKey(dst, "parent_hash")
	dst = appendJSONString(dst, l.ParentHash)
	dst = appendKey(dst, "close_time_human")
	dst = appendJSONString(dst, l.CloseTime)
	dst = appendKey(dst, "transaction_count")
	dst = appendInt(dst, int64(l.TxCount))
	if len(l.Transactions) > 0 {
		dst = appendKey(dst, "transactions")
		dst = append(dst, '[')
		for i := range l.Transactions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendXRPTx(dst, &l.Transactions[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendXRPTx(dst []byte, tx *XRPTxJSON) []byte {
	dst = append(dst, `{"hash":`...)
	dst = appendJSONString(dst, tx.Hash)
	dst = appendKey(dst, "TransactionType")
	dst = appendJSONString(dst, tx.TransactionType)
	dst = appendKey(dst, "Account")
	dst = appendJSONString(dst, tx.Account)
	if tx.Destination != "" {
		dst = appendKey(dst, "Destination")
		dst = appendJSONString(dst, tx.Destination)
	}
	if tx.DestinationTag != 0 {
		dst = appendKey(dst, "DestinationTag")
		dst = appendUint(dst, uint64(tx.DestinationTag))
	}
	dst = appendKey(dst, "Fee")
	dst = appendInt(dst, tx.Fee)
	dst = appendKey(dst, "Sequence")
	dst = appendUint(dst, uint64(tx.Sequence))
	dst = appendXRPAmountField(dst, "Amount", tx.Amount)
	dst = appendXRPAmountField(dst, "TakerGets", tx.TakerGets)
	dst = appendXRPAmountField(dst, "TakerPays", tx.TakerPays)
	dst = appendXRPAmountField(dst, "LimitAmount", tx.LimitAmount)
	dst = appendXRPAmountField(dst, "delivered_amount", tx.DeliveredAmount)
	if tx.OfferSequence != 0 {
		dst = appendKey(dst, "OfferSequence")
		dst = appendUint(dst, uint64(tx.OfferSequence))
	}
	dst = appendKey(dst, "meta_TransactionResult")
	dst = appendJSONString(dst, tx.Result)
	if tx.Executed {
		dst = append(dst, `,"executed":true`...)
	}
	if tx.RestingSequence != 0 {
		dst = appendKey(dst, "resting_sequence")
		dst = appendUint(dst, uint64(tx.RestingSequence))
	}
	return append(dst, '}')
}

func appendXRPAmountField(dst []byte, key string, a *XRPAmountJSON) []byte {
	if a == nil {
		return dst
	}
	dst = appendKey(dst, key)
	dst = append(dst, `{"currency":`...)
	dst = appendJSONString(dst, a.Currency)
	if a.Issuer != "" {
		dst = appendKey(dst, "issuer")
		dst = appendJSONString(dst, a.Issuer)
	}
	dst = appendKey(dst, "value")
	dst = appendInt(dst, a.Value)
	return append(dst, '}')
}

// DecodeXRPLedgerResult parses the result member of a ledger command's
// response, {"ledger": {...}, ...}, as the collector hands it on (see
// SplitXRPEnvelope) into the (typically pooled) projection of its ledger;
// see DecodeEOSBlock for the fallback contract.
func (c *Codec) DecodeXRPLedgerResult(raw []byte, into *XRPLedger) error {
	if c.decodeXRPLedgerResult(raw, into) == nil {
		return nil
	}
	var res struct {
		Ledger XRPLedgerJSON `json:"ledger"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return err
	}
	ProjectXRPLedger(&res.Ledger, into)
	return nil
}

// ProjectXRPLedger fills into with what the aggregators read of full; see
// ProjectEOSBlock.
func ProjectXRPLedger(full *XRPLedgerJSON, into *XRPLedger) {
	into.CloseTime = full.CloseTime
	into.Transactions = into.Transactions[:0]
	for i := range full.Transactions {
		src := &full.Transactions[i]
		var tx *XRPTx
		into.Transactions, tx = grow(into.Transactions)
		*tx = XRPTx{
			TransactionType: src.TransactionType, Account: src.Account,
			Destination: src.Destination, Result: src.Result,
			DestinationTag: src.DestinationTag, Sequence: src.Sequence, Executed: src.Executed,
			Amount: projectXRPAmount(src.Amount), DeliveredAmount: projectXRPAmount(src.DeliveredAmount),
		}
	}
}

func projectXRPAmount(a *XRPAmountJSON) XRPAmount {
	if a == nil {
		return XRPAmount{}
	}
	return XRPAmount{Set: true, Currency: a.Currency, Issuer: a.Issuer, Value: a.Value}
}

// Member keys of each XRP object, in the order AppendXRPLedgerResponse
// writes them; see the EOS decoder for how they are used. The result
// object's ledger_index and validated are in no struct: they are named
// only to be predicted, and stepped over.
const (
	xrpResultLedger = iota
	xrpResultLedgerIndex
	xrpResultValidated
)

const (
	xrpLedgerIndex = iota
	xrpLedgerHash
	xrpLedgerParentHash
	xrpLedgerCloseTime
	xrpLedgerTxCount
	xrpLedgerTransactions
)

const (
	xrpTxHash = iota
	xrpTxType
	xrpTxAccount
	xrpTxDestination
	xrpTxDestinationTag
	xrpTxFee
	xrpTxSequence
	xrpTxAmount
	xrpTxTakerGets
	xrpTxTakerPays
	xrpTxLimitAmount
	xrpTxDelivered
	xrpTxOfferSequence
	xrpTxResult
	xrpTxExecuted
	xrpTxRestingSequence
)

const (
	xrpAmountCurrency = iota
	xrpAmountIssuer
	xrpAmountValue
)

const (
	xrpEnvelopeID = iota
	xrpEnvelopeStatus
	xrpEnvelopeError
	xrpEnvelopeResult
)

var (
	xrpResultKeys = newKeySet([]string{
		xrpResultLedger: "ledger", xrpResultLedgerIndex: "ledger_index", xrpResultValidated: "validated",
	})
	xrpLedgerKeys = newKeySet([]string{
		xrpLedgerIndex: "ledger_index", xrpLedgerHash: "ledger_hash", xrpLedgerParentHash: "parent_hash",
		xrpLedgerCloseTime: "close_time_human", xrpLedgerTxCount: "transaction_count",
		xrpLedgerTransactions: "transactions",
	})
	xrpTxKeys = newKeySet([]string{
		xrpTxHash: "hash", xrpTxType: "TransactionType", xrpTxAccount: "Account",
		xrpTxDestination: "Destination", xrpTxDestinationTag: "DestinationTag", xrpTxFee: "Fee",
		xrpTxSequence: "Sequence", xrpTxAmount: "Amount", xrpTxTakerGets: "TakerGets",
		xrpTxTakerPays: "TakerPays", xrpTxLimitAmount: "LimitAmount", xrpTxDelivered: "delivered_amount",
		xrpTxOfferSequence: "OfferSequence", xrpTxResult: "meta_TransactionResult",
		xrpTxExecuted: "executed", xrpTxRestingSequence: "resting_sequence",
	})
	xrpAmountKeys = newKeySet([]string{
		xrpAmountCurrency: "currency", xrpAmountIssuer: "issuer", xrpAmountValue: "value",
	})
	xrpExecutedLit  = newKeyLit(`,"executed":true`)
	xrpEnvelopeKeys = newKeySet([]string{
		xrpEnvelopeID: "id", xrpEnvelopeStatus: "status", xrpEnvelopeError: "error", xrpEnvelopeResult: "result",
	})
)

func (c *Codec) decodeXRPLedgerResult(raw []byte, into *XRPLedger) error {
	l := &c.lex
	l.reset(raw)
	into.CloseTime = ""
	into.Transactions = into.Transactions[:0]
	var seen uint8
	err := l.object(xrpResultKeys, func(i int, key []byte) error {
		switch i {
		case xrpResultLedger:
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return c.decodeXRPLedger(into)
		case xrpResultLedgerIndex, xrpResultValidated:
			return l.skipValue(0)
		}
		return l.skipUnknown(key, xrpResultKeys.names)
	})
	if err != nil {
		return err
	}
	return l.trailing()
}

func (c *Codec) decodeXRPLedger(into *XRPLedger) error {
	l := &c.lex
	var seen uint8
	return l.object(xrpLedgerKeys, func(i int, key []byte) error {
		switch i {
		case xrpLedgerIndex:
			return l.decodeInt64(nil)
		case xrpLedgerHash, xrpLedgerParentHash:
			return c.decodeStr(nil)
		case xrpLedgerCloseTime:
			return c.decodeStr(&into.CloseTime)
		case xrpLedgerTxCount:
			return l.skipInt()
		case xrpLedgerTransactions:
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return l.array(func() error {
				var tx *XRPTx
				into.Transactions, tx = grow(into.Transactions)
				*tx = XRPTx{}
				if start := l.pos; !l.offLayout {
					if c.straightXRPTx(tx) {
						return nil
					}
					l.stray(start)
					*tx = XRPTx{}
				}
				return c.decodeXRPTx(tx)
			})
		}
		return l.skipUnknown(key, xrpLedgerKeys.names)
	})
}

// straightXRPTx is decodeXRPTx's straight path (see lexer.open): the
// transaction as appendXRPTx writes it.
func (c *Codec) straightXRPTx(tx *XRPTx) bool {
	l, ks := &c.lex, xrpTxKeys
	if !(l.open(ks) && c.plainStr(nil) &&
		l.member(ks, xrpTxType) && c.plainStr(&tx.TransactionType) &&
		l.member(ks, xrpTxAccount) && c.plainStr(&tx.Account) &&
		(!l.member(ks, xrpTxDestination) || c.plainStr(&tx.Destination)) &&
		(!l.member(ks, xrpTxDestinationTag) || l.decodeUint32(&tx.DestinationTag) == nil) &&
		l.member(ks, xrpTxFee) && l.decodeInt64(nil) == nil &&
		l.member(ks, xrpTxSequence) && l.decodeUint32(&tx.Sequence) == nil &&
		c.straightXRPAmount(xrpTxAmount, &tx.Amount) &&
		c.straightXRPAmount(xrpTxTakerGets, nil) &&
		c.straightXRPAmount(xrpTxTakerPays, nil) &&
		c.straightXRPAmount(xrpTxLimitAmount, nil) &&
		c.straightXRPAmount(xrpTxDelivered, &tx.DeliveredAmount) &&
		(!l.member(ks, xrpTxOfferSequence) || l.decodeUint32(nil) == nil) &&
		l.member(ks, xrpTxResult) && c.plainStr(&tx.Result)) {
		return false
	}
	tx.Executed = l.tryLit(&xrpExecutedLit)
	return (!l.member(ks, xrpTxRestingSequence) || l.decodeUint32(nil) == nil) && l.tryBytes("}")
}

// straightXRPAmount reads amount member i, when it is next, as
// appendXRPAmountField writes it: into a, or stepped over when a is nil.
func (c *Codec) straightXRPAmount(i int, a *XRPAmount) bool {
	l, ks := &c.lex, xrpAmountKeys
	if !l.member(xrpTxKeys, i) {
		return true
	}
	var currency, issuer *string
	var value *int64
	if a != nil {
		a.Set = true
		currency, issuer, value = &a.Currency, &a.Issuer, &a.Value
	}
	return l.open(ks) && c.plainStr(currency) &&
		(!l.member(ks, xrpAmountIssuer) || c.plainStr(issuer)) &&
		l.member(ks, xrpAmountValue) && l.decodeInt64(value) == nil && l.tryBytes("}")
}

func (c *Codec) decodeXRPTx(tx *XRPTx) error {
	l := &c.lex
	// The five amount members are pointers in the full shape.
	const (
		sawAmount = 1 << iota
		sawTakerGets
		sawTakerPays
		sawLimitAmount
		sawDelivered
	)
	var seen uint8
	return l.object(xrpTxKeys, func(i int, key []byte) error {
		switch i {
		case xrpTxHash:
			return c.decodeStr(nil)
		case xrpTxType:
			return c.decodeStr(&tx.TransactionType)
		case xrpTxAccount:
			return c.decodeStr(&tx.Account)
		case xrpTxDestination:
			return c.decodeStr(&tx.Destination)
		case xrpTxDestinationTag:
			return l.decodeUint32(&tx.DestinationTag)
		case xrpTxFee:
			return l.decodeInt64(nil)
		case xrpTxSequence:
			return l.decodeUint32(&tx.Sequence)
		case xrpTxAmount:
			return c.decodeXRPAmount(&seen, sawAmount, &tx.Amount)
		case xrpTxTakerGets:
			return c.decodeXRPAmount(&seen, sawTakerGets, nil)
		case xrpTxTakerPays:
			return c.decodeXRPAmount(&seen, sawTakerPays, nil)
		case xrpTxLimitAmount:
			return c.decodeXRPAmount(&seen, sawLimitAmount, nil)
		case xrpTxDelivered:
			return c.decodeXRPAmount(&seen, sawDelivered, &tx.DeliveredAmount)
		case xrpTxOfferSequence, xrpTxRestingSequence:
			return l.decodeUint32(nil)
		case xrpTxResult:
			return c.decodeStr(&tx.Result)
		case xrpTxExecuted:
			return l.decodeBool(&tx.Executed)
		}
		return l.skipUnknown(key, xrpTxKeys.names)
	})
}

// decodeXRPAmount reads an amount member's first occurrence (bit marks it
// in seen) into a, or checks it and steps over it when a is nil. A null
// leaves the amount unset, the full shape's nil pointer.
func (c *Codec) decodeXRPAmount(seen *uint8, bit uint8, a *XRPAmount) error {
	l := &c.lex
	if read, err := l.first(seen, bit); !read {
		return err
	}
	var currency, issuer *string
	var value *int64
	if a != nil {
		a.Set = true
		currency, issuer, value = &a.Currency, &a.Issuer, &a.Value
	}
	return l.object(xrpAmountKeys, func(i int, key []byte) error {
		switch i {
		case xrpAmountCurrency:
			return c.decodeStr(currency)
		case xrpAmountIssuer:
			return c.decodeStr(issuer)
		case xrpAmountValue:
			return l.decodeInt64(value)
		}
		return l.skipUnknown(key, xrpAmountKeys.names)
	})
}

// XRPEnvelope is what the collector reads of a rippled WebSocket response.
// The id is an integer because the collector's request ids are: a reply
// whose id is anything else is refused, which is what a reply to some other
// request deserves.
type XRPEnvelope struct {
	ID     int64  `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	// Result is the result member's bytes, verbatim. After the fast split it
	// aliases the frame: copy it before letting go of that.
	Result json.RawMessage `json:"result"`
}

// SplitXRPEnvelope splits one response frame into env in a single strict
// pass of the lexer: the frame is held to the grammar encoding/json holds
// it to, and the result member is checked and stepped over, not decoded.
// See DecodeEOSBlock for the fallback contract.
func (c *Codec) SplitXRPEnvelope(frame []byte, env *XRPEnvelope) error {
	if c.splitXRPEnvelope(frame, env) == nil {
		return nil
	}
	*env = XRPEnvelope{}
	return json.Unmarshal(frame, env)
}

func (c *Codec) splitXRPEnvelope(frame []byte, env *XRPEnvelope) error {
	l := &c.lex
	l.reset(frame)
	*env = XRPEnvelope{}
	err := l.object(xrpEnvelopeKeys, func(i int, key []byte) error {
		switch i {
		case xrpEnvelopeID:
			return l.decodeInt64(&env.ID)
		case xrpEnvelopeStatus:
			return c.decodeStr(&env.Status)
		case xrpEnvelopeError:
			return c.decodeStr(&env.Error)
		case xrpEnvelopeResult:
			// A repeated scalar or raw member is overwritten, as
			// encoding/json overwrites it; a null result is the bytes "null".
			l.skipWS()
			start := l.pos
			if err := l.skipValue(0); err != nil {
				return err
			}
			env.Result = frame[start:l.pos]
			return nil
		}
		return l.skipUnknown(key, xrpEnvelopeKeys.names)
	})
	if err != nil {
		return err
	}
	return l.trailing()
}

// AppendXRPLedgerResponse renders the whole rippled WebSocket envelope for
// a successful ledger command — {"id":…,"status":"success","type":
// "response","result":{"ledger":…,"ledger_index":…,"validated":true}} —
// matching what encoding/json produced for the equivalent response struct.
// The reported ok is false when the request id has a shape it does not
// render: a non-integral or out-of-range number, a bool or an object.
func (c *Codec) AppendXRPLedgerResponse(dst []byte, id any, l *XRPLedgerJSON, index int64) ([]byte, bool) {
	dst = append(dst, `{"id":`...)
	switch v := id.(type) {
	case nil:
		dst = append(dst, "null"...)
	case string:
		dst = appendJSONString(dst, v)
	case int:
		dst = appendInt(dst, int64(v))
	case int64:
		dst = appendInt(dst, v)
	case json.Number:
		dst = append(dst, v.String()...)
	case float64:
		// Request ids arrive as float64 via encoding/json; integral values
		// render like stdlib. Non-integral ids are refused.
		if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
			return dst, false
		}
		dst = appendInt(dst, int64(v))
	default:
		return dst, false
	}
	dst = append(dst, `,"status":"success","type":"response","result":{"ledger":`...)
	dst = c.AppendXRPLedger(dst, l)
	dst = append(dst, `,"ledger_index":`...)
	dst = appendInt(dst, index)
	dst = append(dst, `,"validated":true}}`...)
	return dst, true
}
