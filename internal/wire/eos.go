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

// Member keys of each EOS object, in the order AppendEOSBlock writes them:
// the predictions lexer.object tries first. For the struct shapes they are
// also the canonical names a differently-cased key is checked against (it
// must take the stdlib fallback for encoding/json's case-insensitive
// matching). authorization and data are maps, which encoding/json matches
// exactly and renders sorted; their sets name the keys the repo's actions
// carry.
const (
	eosBlockNum = iota
	eosBlockID
	eosBlockPrevious
	eosBlockTimestamp
	eosBlockProducer
	eosBlockTransactions
)

const (
	eosTrxStatus = iota
	eosTrxTrx
)

const (
	eosInnerID = iota
	eosInnerTransaction
)

const (
	eosActionAccount = iota
	eosActionName
	eosActionAuthorization
	eosActionData
	eosActionInline
)

const (
	eosAuthActor = iota
	eosAuthPermission
)

const (
	eosDataBuyer = iota
	eosDataFrom
	eosDataMemo
	eosDataQuantity
	eosDataSeller
	eosDataTo
)

var (
	eosBlockKeys = newKeySet([]string{
		eosBlockNum: "block_num", eosBlockID: "id", eosBlockPrevious: "previous",
		eosBlockTimestamp: "timestamp", eosBlockProducer: "producer", eosBlockTransactions: "transactions",
	})
	eosTrxKeys    = newKeySet([]string{eosTrxStatus: "status", eosTrxTrx: "trx"})
	eosInnerKeys  = newKeySet([]string{eosInnerID: "id", eosInnerTransaction: "transaction"})
	eosTxnKeys    = newKeySet([]string{"actions"})
	eosActionKeys = newKeySet([]string{
		eosActionAccount: "account", eosActionName: "name", eosActionAuthorization: "authorization",
		eosActionData: "data", eosActionInline: "inline",
	})
	// Literals of appendEOSTrx and appendEOSAction that run from one
	// member's value into a nested object's first member.
	eosTrxIDLit   = newKeyLit(`,"trx":{"id":`)
	eosActionsLit = newKeyLit(`,"transaction":{"actions":[`)
	eosActorLit   = newKeyLit(`,"authorization":[{"actor":`)
	eosDataLit    = newKeyLit(`}],"data":{`)
	eosInlineLit  = newKeyLit(`,"inline":true`)
	eosAuthKeys   = newKeySet([]string{eosAuthActor: "actor", eosAuthPermission: "permission"})
	eosDataKeys   = newKeySet([]string{
		eosDataBuyer: "buyer", eosDataFrom: "from", eosDataMemo: "memo",
		eosDataQuantity: "quantity", eosDataSeller: "seller", eosDataTo: "to",
	})
)

func (c *Codec) decodeEOSBlock(raw []byte, into *EOSBlock) error {
	l := &c.lex
	l.reset(raw)
	into.Timestamp = ""
	into.Transactions = into.Transactions[:0]
	var seen uint8
	err := l.object(eosBlockKeys, func(i int, key []byte) error {
		switch i {
		case eosBlockNum:
			return l.decodeUint32(nil)
		case eosBlockID, eosBlockPrevious, eosBlockProducer:
			return c.decodeStr(nil)
		case eosBlockTimestamp:
			return c.decodeStr(&into.Timestamp)
		case eosBlockTransactions:
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return l.array(func() error {
				var t *EOSTrx
				into.Transactions, t = grow(into.Transactions)
				t.Actions = t.Actions[:0]
				if start := l.pos; !l.offLayout {
					if c.straightEOSTrx(t) {
						return nil
					}
					l.stray(start)
					t.Actions = t.Actions[:0]
				}
				return c.decodeEOSTrx(t)
			})
		}
		return l.skipUnknown(key, eosBlockKeys.names)
	})
	if err != nil {
		return err
	}
	return l.trailing()
}

// straightEOSTrx is decodeEOSTrx's straight path (see lexer.open): the
// receipt as appendEOSTrx writes it, with an empty actions array or actions
// as straightEOSAction reads them.
func (c *Codec) straightEOSTrx(t *EOSTrx) bool {
	l := &c.lex
	if !l.open(eosTrxKeys) || !c.plainStr(nil) ||
		!l.tryLit(&eosTrxIDLit) || !c.plainStr(nil) || !l.tryLit(&eosActionsLit) {
		return false
	}
	for n := 0; !l.tryBytes("]"); n++ {
		if n > 0 && !l.tryBytes(",") {
			return false
		}
		var a *EOSAction
		t.Actions, a = grow(t.Actions)
		*a = EOSAction{}
		if !c.straightEOSAction(a) {
			return false
		}
	}
	return l.tryBytes("}}}")
}

// straightEOSAction reads one action as appendEOSAction writes it, with
// one authorization and a data map whose keys eosDataKeys names, in the
// sorted order appendStringMap writes them.
func (c *Codec) straightEOSAction(a *EOSAction) bool {
	l := &c.lex
	if !l.open(eosActionKeys) || !c.plainStr(&a.Account) ||
		!l.member(eosActionKeys, eosActionName) || !c.plainStr(&a.Name) ||
		!l.tryLit(&eosActorLit) || !c.plainStr(&a.Actor) ||
		!l.member(eosAuthKeys, eosAuthPermission) || !c.plainStr(nil) || !l.tryLit(&eosDataLit) {
		return false
	}
	lits := eosDataKeys.lits
	for i, dst := range [...]*string{
		eosDataBuyer: &a.Buyer, eosDataFrom: &a.From, eosDataMemo: nil,
		eosDataQuantity: &a.Quantity, eosDataSeller: &a.Seller, eosDataTo: &a.To,
	} {
		if !l.tryLit(&lits[i]) {
			continue
		}
		if !c.plainStr(dst) {
			return false
		}
		lits = eosDataKeys.next
	}
	if !l.tryBytes("}") {
		return false
	}
	l.tryLit(&eosInlineLit)
	return l.tryBytes("}")
}

// decodeEOSTrx reads one receipt, {"status":…,"trx":{"id":…,
// "transaction":{"actions":[…]}}}, appending its actions to t. trx and
// transaction are structs in the full shape, not pointers: a null leaves
// them as they were, which on a first occurrence is empty.
func (c *Codec) decodeEOSTrx(t *EOSTrx) error {
	l := &c.lex
	var seen uint8
	return l.object(eosTrxKeys, func(i int, key []byte) error {
		switch i {
		case eosTrxStatus:
			return c.decodeStr(nil)
		case eosTrxTrx:
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return c.decodeEOSTrxInner(t)
		}
		return l.skipUnknown(key, eosTrxKeys.names)
	})
}

func (c *Codec) decodeEOSTrxInner(t *EOSTrx) error {
	l := &c.lex
	var seen uint8
	return l.object(eosInnerKeys, func(i int, key []byte) error {
		switch i {
		case eosInnerID:
			return c.decodeStr(nil)
		case eosInnerTransaction:
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return c.decodeEOSActions(t)
		}
		return l.skipUnknown(key, eosInnerKeys.names)
	})
}

func (c *Codec) decodeEOSActions(t *EOSTrx) error {
	l := &c.lex
	var seen uint8
	return l.object(eosTxnKeys, func(i int, key []byte) error {
		if i != 0 {
			return l.skipUnknown(key, eosTxnKeys.names)
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
	return l.object(eosActionKeys, func(i int, key []byte) error {
		switch i {
		case eosActionAccount:
			return c.decodeStr(&a.Account)
		case eosActionName:
			return c.decodeStr(&a.Name)
		case eosActionInline:
			return l.decodeBool(nil)
		case eosActionAuthorization:
			if read, err := l.first(&seen, sawAuthorization); !read {
				return err
			}
			// Only the first authorization's actor is read.
			actor := &a.Actor
			return l.array(func() error {
				err := l.object(eosAuthKeys, func(i int, _ []byte) error {
					if i == eosAuthActor {
						return c.decodeMapValue(actor)
					}
					return c.decodeMapValue(nil)
				})
				actor = nil
				return err
			})
		case eosActionData:
			if read, err := l.first(&seen, sawData); !read {
				return err
			}
			return l.object(eosDataKeys, func(i int, _ []byte) error {
				switch i {
				case eosDataFrom:
					return c.decodeMapValue(&a.From)
				case eosDataTo:
					return c.decodeMapValue(&a.To)
				case eosDataQuantity:
					return c.decodeMapValue(&a.Quantity)
				case eosDataBuyer:
					return c.decodeMapValue(&a.Buyer)
				case eosDataSeller:
					return c.decodeMapValue(&a.Seller)
				}
				return c.decodeMapValue(nil)
			})
		}
		return l.skipUnknown(key, eosActionKeys.names)
	})
}

// decodeMapValue reads one value of a map[string]string into dst, interned
// — a null stores "", as it does in the map — or steps over it when dst is
// nil.
func (c *Codec) decodeMapValue(dst *string) error {
	if c.plainStr(dst) {
		return nil
	}
	if dst != nil && c.lex.peek() == 'n' {
		*dst = ""
	}
	return c.generalStr(dst)
}

// decodeStr reads a string (or null, a no-op) into dst, interned. A nil
// dst holds the value to the same grammar and steps over it: nothing is
// copied, unescaped or interned.
func (c *Codec) decodeStr(dst *string) error {
	if c.plainStr(dst) {
		return nil
	}
	return c.generalStr(dst)
}

// plainStr is the straight path of decodeStr and decodeMapValue: a string
// whose opening quote is the byte at pos and that scanPlain carries to its
// closing quote — no escape, no control byte, and no high byte when it is
// read (a stepped-over one may hold them: nothing checks its encoding) —
// is consumed and interned into dst, or stepped over when dst is nil. That
// is what readString and skipString do with such a string, minus their
// decisions. Anything else leaves pos where it was and reports false, and
// generalStr takes the value.
func (c *Codec) plainStr(dst *string) bool {
	l := &c.lex
	start := l.pos
	if start >= len(l.data) || l.data[start] != '"' {
		return false
	}
	l.pos++
	if high := l.scanPlain(); l.pos >= len(l.data) || l.data[l.pos] != '"' || high && dst != nil {
		l.pos = start
		return false
	}
	if dst != nil {
		*dst = c.str(l.data[start+1 : l.pos])
	}
	l.pos++
	return true
}

// generalStr is decodeStr for a value plainStr refuses: a null, a string
// after white space, one with an escape, a read one with a high byte, or
// no string at all.
func (c *Codec) generalStr(dst *string) error {
	l := &c.lex
	if l.tryNull() {
		return nil
	}
	l.detours++
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
