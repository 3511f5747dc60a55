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
			DestinationTag: src.DestinationTag, Sequence: src.Sequence,
			RestingSequence: src.RestingSequence, Executed: src.Executed,
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

// Canonical field-name sets; see the EOS decoder for the fold contract.
var (
	xrpResponseFields = []string{"id", "status", "error", "result"}
	xrpResultFields   = []string{"ledger"}
	xrpLedgerFields   = []string{"ledger_index", "ledger_hash", "parent_hash", "close_time_human", "transaction_count", "transactions"}
	xrpTxFields       = []string{"hash", "TransactionType", "Account", "Destination", "DestinationTag", "Fee", "Sequence", "Amount", "TakerGets", "TakerPays", "LimitAmount", "delivered_amount", "OfferSequence", "meta_TransactionResult", "executed", "resting_sequence"}
	xrpAmountFields   = []string{"currency", "issuer", "value"}
)

func (c *Codec) decodeXRPLedgerResult(raw []byte, into *XRPLedger) error {
	l := &c.lex
	l.reset(raw)
	into.CloseTime = ""
	into.Transactions = into.Transactions[:0]
	var seen uint8
	err := l.object(func(key []byte) error {
		if string(key) != "ledger" {
			return l.skipUnknown(key, xrpResultFields)
		}
		if read, err := l.first(&seen, 1); !read {
			return err
		}
		return c.decodeXRPLedger(into)
	})
	if err != nil {
		return err
	}
	return l.trailing()
}

func (c *Codec) decodeXRPLedger(into *XRPLedger) error {
	l := &c.lex
	var seen uint8
	return l.object(func(key []byte) error {
		switch string(key) {
		case "ledger_index":
			return l.decodeInt64(nil)
		case "ledger_hash", "parent_hash":
			return c.decodeStr(nil)
		case "close_time_human":
			return c.decodeStr(&into.CloseTime)
		case "transaction_count":
			return l.skipInt()
		case "transactions":
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return l.array(func() error {
				var tx *XRPTx
				into.Transactions, tx = grow(into.Transactions)
				*tx = XRPTx{}
				return c.decodeXRPTx(tx)
			})
		}
		return l.skipUnknown(key, xrpLedgerFields)
	})
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
	return l.object(func(key []byte) error {
		switch string(key) {
		case "hash":
			return c.decodeStr(nil)
		case "TransactionType":
			return c.decodeStr(&tx.TransactionType)
		case "Account":
			return c.decodeStr(&tx.Account)
		case "Destination":
			return c.decodeStr(&tx.Destination)
		case "DestinationTag":
			return l.decodeUint32(&tx.DestinationTag)
		case "Fee":
			return l.decodeInt64(nil)
		case "Sequence":
			return l.decodeUint32(&tx.Sequence)
		case "Amount":
			return c.decodeXRPAmount(&seen, sawAmount, &tx.Amount)
		case "TakerGets":
			return c.decodeXRPAmount(&seen, sawTakerGets, nil)
		case "TakerPays":
			return c.decodeXRPAmount(&seen, sawTakerPays, nil)
		case "LimitAmount":
			return c.decodeXRPAmount(&seen, sawLimitAmount, nil)
		case "delivered_amount":
			return c.decodeXRPAmount(&seen, sawDelivered, &tx.DeliveredAmount)
		case "OfferSequence":
			return l.decodeUint32(nil)
		case "meta_TransactionResult":
			return c.decodeStr(&tx.Result)
		case "executed":
			return l.decodeBool(&tx.Executed)
		case "resting_sequence":
			return l.decodeUint32(&tx.RestingSequence)
		}
		return l.skipUnknown(key, xrpTxFields)
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
	return l.object(func(key []byte) error {
		switch string(key) {
		case "currency":
			return c.decodeStr(currency)
		case "issuer":
			return c.decodeStr(issuer)
		case "value":
			return l.decodeInt64(value)
		}
		return l.skipUnknown(key, xrpAmountFields)
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
	err := l.object(func(key []byte) error {
		switch string(key) {
		case "id":
			return l.decodeInt64(&env.ID)
		case "status":
			return c.decodeStr(&env.Status)
		case "error":
			return c.decodeStr(&env.Error)
		case "result":
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
		return l.skipUnknown(key, xrpResponseFields)
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
// The reported ok is false when the request id has a shape the fast path
// does not render (caller falls back to reflection).
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
		// render like stdlib. Non-integral ids take the fallback.
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
