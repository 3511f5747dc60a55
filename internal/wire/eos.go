package wire

import "encoding/json"

// AppendEOSBlock renders b as nodeos-style block JSON, byte-identical to
// encoding/json.Marshal of the same struct, appending to dst.
func (c *Codec) AppendEOSBlock(dst []byte, b *EOSBlockJSON) []byte {
	dst = append(dst, `{"block_num":`...)
	dst = appendUint(dst, uint64(b.BlockNum))
	dst = appendKey(dst, "id")
	dst = appendJSONString(dst, b.ID)
	dst = appendKey(dst, "previous")
	dst = appendJSONString(dst, b.Previous)
	dst = appendKey(dst, "timestamp")
	dst = appendJSONString(dst, b.Timestamp)
	dst = appendKey(dst, "producer")
	dst = appendJSONString(dst, b.Producer)
	dst = appendKey(dst, "transactions")
	if b.Transactions == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range b.Transactions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = c.appendEOSTrx(dst, &b.Transactions[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func (c *Codec) appendEOSTrx(dst []byte, t *EOSTrxJSON) []byte {
	dst = append(dst, `{"status":`...)
	dst = appendJSONString(dst, t.Status)
	dst = append(dst, `,"trx":{"id":`...)
	dst = appendJSONString(dst, t.Trx.ID)
	dst = append(dst, `,"transaction":{"actions":`...)
	if t.Trx.Transaction.Actions == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range t.Trx.Transaction.Actions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = c.appendEOSAction(dst, &t.Trx.Transaction.Actions[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '}', '}')
}

func (c *Codec) appendEOSAction(dst []byte, a *EOSActionJSON) []byte {
	dst = append(dst, `{"account":`...)
	dst = appendJSONString(dst, a.Account)
	dst = appendKey(dst, "name")
	dst = appendJSONString(dst, a.Name)
	dst = appendKey(dst, "authorization")
	if a.Authorization == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, m := range a.Authorization {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = c.appendStringMap(dst, m)
		}
		dst = append(dst, ']')
	}
	dst = appendKey(dst, "data")
	dst = c.appendStringMap(dst, a.Data)
	if a.Inline {
		dst = append(dst, `,"inline":true`...)
	}
	return append(dst, '}')
}

// DecodeEOSBlock parses raw into the (typically pooled) projection, reusing
// its transaction and action capacity. Unknown fields are skipped and field
// order is free, matching encoding/json semantics; a payload the fast
// scanner refuses is unmarshalled into the full shape by encoding/json —
// whose verdict, success or error, is final — and projected. On error the
// projection's contents are unspecified.
func (c *Codec) DecodeEOSBlock(raw []byte, into *EOSBlock) error {
	if c.decodeEOSBlock(raw, into) == nil {
		return nil
	}
	var full EOSBlockJSON
	if err := json.Unmarshal(raw, &full); err != nil {
		return err
	}
	ProjectEOSBlock(&full, into)
	return nil
}

// ProjectEOSBlock fills into with what the aggregators read of full,
// reusing into's capacity. It defines the projection: the fast decoder
// must leave exactly this for every payload it accepts.
func ProjectEOSBlock(full *EOSBlockJSON, into *EOSBlock) {
	into.Timestamp = full.Timestamp
	into.Transactions = into.Transactions[:0]
	for i := range full.Transactions {
		var t *EOSTrx
		into.Transactions, t = grow(into.Transactions)
		t.Actions = t.Actions[:0]
		actions := full.Transactions[i].Trx.Transaction.Actions
		for j := range actions {
			src := &actions[j]
			var a *EOSAction
			t.Actions, a = grow(t.Actions)
			*a = EOSAction{
				Account: src.Account, Name: src.Name,
				From: src.Data["from"], To: src.Data["to"], Quantity: src.Data["quantity"],
				Buyer: src.Data["buyer"], Seller: src.Data["seller"],
			}
			if len(src.Authorization) > 0 {
				a.Actor = src.Authorization[0]["actor"]
			}
		}
	}
}

// grow extends s by one element, within its capacity when it can, and
// returns the element as an earlier use left it: the caller resets it,
// keeping what backing arrays it wants.
func grow[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}

// Canonical field-name sets, used to detect non-canonically cased keys
// (which must take the stdlib fallback for encoding/json's
// case-insensitive matching).
var (
	eosBlockFields  = []string{"block_num", "id", "previous", "timestamp", "producer", "transactions"}
	eosTrxFields    = []string{"status", "trx"}
	eosInnerFields  = []string{"id", "transaction"}
	eosTxnFields    = []string{"actions"}
	eosActionFields = []string{"account", "name", "inline", "authorization", "data"}
)

func (c *Codec) decodeEOSBlock(raw []byte, into *EOSBlock) error {
	l := &c.lex
	l.reset(raw)
	into.Timestamp = ""
	into.Transactions = into.Transactions[:0]
	var seen uint8
	err := l.object(func(key []byte) error {
		switch string(key) {
		case "block_num":
			return l.decodeUint32(nil)
		case "id", "previous", "producer":
			return c.decodeStr(nil)
		case "timestamp":
			return c.decodeStr(&into.Timestamp)
		case "transactions":
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return l.array(func() error {
				var t *EOSTrx
				into.Transactions, t = grow(into.Transactions)
				t.Actions = t.Actions[:0]
				return c.decodeEOSTrx(t)
			})
		}
		return l.skipUnknown(key, eosBlockFields)
	})
	if err != nil {
		return err
	}
	return l.trailing()
}

// decodeEOSTrx reads one receipt, {"status":…,"trx":{"id":…,
// "transaction":{"actions":[…]}}}, appending its actions to t. trx and
// transaction are structs in the full shape, not pointers: a null leaves
// them as they were, which on a first occurrence is empty.
func (c *Codec) decodeEOSTrx(t *EOSTrx) error {
	l := &c.lex
	var seen uint8
	return l.object(func(key []byte) error {
		switch string(key) {
		case "status":
			return c.decodeStr(nil)
		case "trx":
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return c.decodeEOSTrxInner(t)
		}
		return l.skipUnknown(key, eosTrxFields)
	})
}

func (c *Codec) decodeEOSTrxInner(t *EOSTrx) error {
	l := &c.lex
	var seen uint8
	return l.object(func(key []byte) error {
		switch string(key) {
		case "id":
			return c.decodeStr(nil)
		case "transaction":
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return c.decodeEOSActions(t)
		}
		return l.skipUnknown(key, eosInnerFields)
	})
}

func (c *Codec) decodeEOSActions(t *EOSTrx) error {
	l := &c.lex
	var seen uint8
	return l.object(func(key []byte) error {
		if string(key) != "actions" {
			return l.skipUnknown(key, eosTxnFields)
		}
		if read, err := l.first(&seen, 1); !read {
			return err
		}
		return l.array(func() error {
			var a *EOSAction
			t.Actions, a = grow(t.Actions)
			*a = EOSAction{}
			return c.decodeEOSAction(a)
		})
	})
}

// decodeEOSAction reads one action. authorization and data hold
// map[string]string in the full shape, so their keys match exactly (no
// case folding), the last of a repeated key wins, and every value is a
// string or a null: decodeMapValue.
func (c *Codec) decodeEOSAction(a *EOSAction) error {
	l := &c.lex
	const (
		sawAuthorization = 1 << iota
		sawData
	)
	var seen uint8
	return l.object(func(key []byte) error {
		switch string(key) {
		case "account":
			return c.decodeStr(&a.Account)
		case "name":
			return c.decodeStr(&a.Name)
		case "inline":
			return l.decodeBool(nil)
		case "authorization":
			if read, err := l.first(&seen, sawAuthorization); !read {
				return err
			}
			// Only the first authorization's actor is read.
			actor := &a.Actor
			return l.array(func() error {
				err := l.object(func(key []byte) error {
					if string(key) == "actor" {
						return c.decodeMapValue(actor)
					}
					return c.decodeMapValue(nil)
				})
				actor = nil
				return err
			})
		case "data":
			if read, err := l.first(&seen, sawData); !read {
				return err
			}
			return l.object(func(key []byte) error {
				switch string(key) {
				case "from":
					return c.decodeMapValue(&a.From)
				case "to":
					return c.decodeMapValue(&a.To)
				case "quantity":
					return c.decodeMapValue(&a.Quantity)
				case "buyer":
					return c.decodeMapValue(&a.Buyer)
				case "seller":
					return c.decodeMapValue(&a.Seller)
				}
				return c.decodeMapValue(nil)
			})
		}
		return l.skipUnknown(key, eosActionFields)
	})
}

// decodeMapValue reads one value of a map[string]string into dst, interned
// — a null stores "", as it does in the map — or steps over it when dst is
// nil.
func (c *Codec) decodeMapValue(dst *string) error {
	if dst != nil && c.lex.peek() == 'n' {
		*dst = ""
	}
	return c.decodeStr(dst)
}

// decodeStr reads a string (or null, a no-op) into dst, interned. A nil
// dst holds the value to the same grammar and steps over it: nothing is
// copied, unescaped or interned.
func (c *Codec) decodeStr(dst *string) error {
	l := &c.lex
	if l.tryNull() {
		return nil
	}
	if dst == nil {
		return l.skipString()
	}
	b, err := l.readString()
	if err != nil {
		return err
	}
	*dst = c.str(b)
	return nil
}
