package rpcserve

import (
	"sync"
	"time"

	"repro/internal/eos"
	"repro/internal/tezos"
	"repro/internal/wire"
	"repro/internal/xrp"
)

// The converters fill the wire package's full …JSON shapes from simulator
// blocks, reusing whatever capacity the (typically arena-pooled) struct
// kept from earlier uses, so the block handlers' steady state allocates
// only the strings a block renders.

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

// eosWireBlock fills out with b's wire shape, reusing out's transaction,
// action and map capacity: the nodeos-style rendering get_block serves.
func eosWireBlock(b *eos.Block, out *wire.EOSBlockJSON) {
	out.BlockNum = b.Num
	out.ID = b.ID.String()
	out.Previous = b.Previous.String()
	out.Timestamp = b.Timestamp.UTC().Format(wire.EOSTimestampLayout)
	out.Producer = b.Producer.String()
	if len(b.Transactions) == 0 {
		// Keep the nil → "transactions":null rendering of the original
		// reflect path for empty blocks.
		out.Transactions = nil
		return
	}
	out.Transactions = out.Transactions[:0]
	for i := range b.Transactions {
		tx := &b.Transactions[i]
		var tj *wire.EOSTrxJSON
		out.Transactions, tj = grow(out.Transactions)
		tj.Status = "executed"
		tj.Trx.ID = tx.ID.String()
		tj.Trx.Transaction.Actions = tj.Trx.Transaction.Actions[:0]
		for j := range tx.Actions {
			act := &tx.Actions[j]
			var aj *wire.EOSActionJSON
			tj.Trx.Transaction.Actions, aj = grow(tj.Trx.Transaction.Actions)
			aj.Account = act.Account.String()
			aj.Name = act.ActionName.String()
			aj.Inline = act.Inline
			aj.Authorization = aj.Authorization[:0]
			// Own the data map: the pooled struct outlives this request and
			// must never alias simulator state. A nil source map stays nil
			// so the rendering matches the original reflect path.
			if act.Data == nil {
				aj.Data = nil
			} else {
				if aj.Data == nil {
					aj.Data = make(map[string]string, len(act.Data))
				} else {
					clear(aj.Data)
				}
				for k, v := range act.Data {
					aj.Data[k] = v
				}
			}
			if len(act.Authorization) == 0 {
				aj.Authorization = nil
			}
			for _, auth := range act.Authorization {
				// Revive a map left by an earlier use when capacity allows.
				var m map[string]string
				n := len(aj.Authorization)
				if cap(aj.Authorization) > n {
					aj.Authorization = aj.Authorization[:n+1]
					m = aj.Authorization[n]
				}
				if m == nil {
					m = make(map[string]string, 2)
					if len(aj.Authorization) > n {
						aj.Authorization[n] = m
					} else {
						aj.Authorization = append(aj.Authorization, m)
					}
				} else {
					clear(m)
				}
				m["actor"] = auth.Actor.String()
				m["permission"] = auth.Permission
			}
		}
		if len(tx.Actions) == 0 {
			tj.Trx.Transaction.Actions = nil
		}
	}
}

// tezosWireBlock fills out with b's wire shape, reusing out's operation
// capacity: the octez-style rendering the block endpoints serve.
func tezosWireBlock(b *tezos.Block, out *wire.TezosBlockJSON) {
	out.Level = b.Level
	out.Hash = b.Hash.String()
	out.Predecessor = b.Predecessor.String()
	out.Timestamp = b.Timestamp.UTC().Format(time.RFC3339)
	out.Baker = string(b.Baker)
	if len(b.Operations) == 0 {
		out.Operations = nil
		return
	}
	out.Operations = out.Operations[:0]
	for i := range b.Operations {
		op := &b.Operations[i]
		var oj *wire.TezosOperationJSON
		out.Operations, oj = grow(out.Operations)
		oj.Kind = string(op.Kind)
		oj.Source = string(op.Source)
		oj.Destination = string(op.Destination)
		oj.Amount = op.Amount
		oj.Fee = op.Fee
		oj.Level = op.Level
		oj.SlotCount = len(op.Slots)
		oj.Proposal = op.Proposal
		oj.Ballot = string(op.Ballot)
		oj.Rolls = op.Rolls
		oj.Delegate = string(op.Delegate)
	}
}

// xrpConverter fills ledger shapes, holding a free list of amount structs
// recycled between the transactions of successive conversions. Not safe
// for concurrent use; recycle through xrpConverters.
type xrpConverter struct {
	amounts []*wire.XRPAmountJSON
}

var xrpConverters = sync.Pool{New: func() any { return new(xrpConverter) }}

// xrpWireLedger fills out with l's wire shape through a pooled converter.
func xrpWireLedger(l *xrp.Ledger, expand bool, out *wire.XRPLedgerJSON) {
	c := xrpConverters.Get().(*xrpConverter)
	c.wireLedger(l, expand, out)
	xrpConverters.Put(c)
}

// wireLedger fills out with l's wire shape (transactions included when
// expand is set), reusing out's transaction and amount capacity: the
// rippled-style rendering the ledger command serves.
func (c *xrpConverter) wireLedger(l *xrp.Ledger, expand bool, out *wire.XRPLedgerJSON) {
	out.Transactions = out.Transactions[:0]
	out.LedgerIndex = l.Index
	out.LedgerHash = l.Hash.String()
	out.ParentHash = l.ParentHash.String()
	out.CloseTime = l.CloseTime.UTC().Format(time.RFC3339)
	out.TxCount = len(l.Transactions)
	if !expand {
		return
	}
	for i := range l.Transactions {
		tx := &l.Transactions[i]
		var tj *wire.XRPTxJSON
		out.Transactions, tj = c.growTx(out.Transactions)
		tj.Hash = tx.ID.String()
		tj.TransactionType = string(tx.Type)
		tj.Account = string(tx.Account)
		tj.Destination = string(tx.Destination)
		tj.DestinationTag = tx.DestinationTag
		tj.Fee = tx.Fee
		tj.Sequence = tx.Sequence
		c.setAmount(&tj.Amount, tx.Amount)
		c.setAmount(&tj.TakerGets, tx.TakerGets)
		c.setAmount(&tj.TakerPays, tx.TakerPays)
		c.setAmount(&tj.LimitAmount, tx.LimitAmount)
		c.setAmount(&tj.DeliveredAmount, tx.DeliveredAmount)
		tj.OfferSequence = tx.OfferSequence
		tj.Result = string(tx.Result)
		tj.Executed = tx.Executed
		tj.RestingSequence = tx.RestingSequence
	}
}

// growTx extends s by one element, recycling the revived element's amount
// structs into the free list.
func (c *xrpConverter) growTx(s []wire.XRPTxJSON) ([]wire.XRPTxJSON, *wire.XRPTxJSON) {
	s, tx := grow(s)
	c.freeAmount(tx.Amount)
	c.freeAmount(tx.TakerGets)
	c.freeAmount(tx.TakerPays)
	c.freeAmount(tx.LimitAmount)
	c.freeAmount(tx.DeliveredAmount)
	*tx = wire.XRPTxJSON{}
	return s, tx
}

const maxFreeAmounts = 4096

func (c *xrpConverter) freeAmount(a *wire.XRPAmountJSON) {
	if a != nil && len(c.amounts) < maxFreeAmounts {
		c.amounts = append(c.amounts, a)
	}
}

func (c *xrpConverter) getAmount() *wire.XRPAmountJSON {
	if n := len(c.amounts); n > 0 {
		a := c.amounts[n-1]
		c.amounts = c.amounts[:n-1]
		return a
	}
	return new(wire.XRPAmountJSON)
}

// setAmount mirrors amountJSON's nil-for-zero convention, recycling amount
// structs through the free list.
func (c *xrpConverter) setAmount(dst **wire.XRPAmountJSON, a xrp.Amount) {
	if a.Value == 0 && a.Currency == "" {
		c.freeAmount(*dst)
		*dst = nil
		return
	}
	j := *dst
	if j == nil {
		j = c.getAmount()
		*dst = j
	}
	j.Currency = a.Currency
	j.Issuer = string(a.Issuer)
	j.Value = a.Value
}
