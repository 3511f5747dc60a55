package wire

import (
	"time"

	"repro/internal/eos"
	"repro/internal/tezos"
	"repro/internal/xrp"
)

// EOSWireBlock fills out with b's wire shape, reusing out's transaction,
// action and map capacity: the nodeos-style rendering rpcserve's get_block
// serves, written into a caller-owned (typically pooled) struct.
func EOSWireBlock(b *eos.Block, out *EOSBlockJSON) {
	out.BlockNum = b.Num
	out.ID = b.ID.String()
	out.Previous = b.Previous.String()
	out.Timestamp = b.Timestamp.UTC().Format(EOSTimestampLayout)
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
		var tj *EOSTrxJSON
		out.Transactions, tj = grow(out.Transactions)
		tj.Status = "executed"
		tj.Trx.ID = tx.ID.String()
		tj.Trx.Transaction.Actions = tj.Trx.Transaction.Actions[:0]
		for j := range tx.Actions {
			act := &tx.Actions[j]
			var aj *EOSActionJSON
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

// TezosWireBlock fills out with b's wire shape, reusing out's operation
// capacity: the octez-style rendering rpcserve's block endpoints serve.
func TezosWireBlock(b *tezos.Block, out *TezosBlockJSON) {
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
		var oj *TezosOperationJSON
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

// XRPWireLedger fills out with l's wire shape (transactions included when
// expand is set), reusing out's transaction and amount capacity; the
// rippled-style rendering rpcserve.XRPLedgerToJSON produces.
func (c *Codec) XRPWireLedger(l *xrp.Ledger, expand bool, out *XRPLedgerJSON) {
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
		var tj *XRPTxJSON
		out.Transactions, tj = c.growXRPTx(out.Transactions)
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

// growXRPTx extends s by one element, recycling the revived element's
// amount structs into the codec's free list.
func (c *Codec) growXRPTx(s []XRPTxJSON) ([]XRPTxJSON, *XRPTxJSON) {
	s, tx := grow(s)
	c.freeAmount(tx.Amount)
	c.freeAmount(tx.TakerGets)
	c.freeAmount(tx.TakerPays)
	c.freeAmount(tx.LimitAmount)
	c.freeAmount(tx.DeliveredAmount)
	*tx = XRPTxJSON{}
	return s, tx
}

const maxFreeAmounts = 4096

func (c *Codec) freeAmount(a *XRPAmountJSON) {
	if a != nil && len(c.amounts) < maxFreeAmounts {
		c.amounts = append(c.amounts, a)
	}
}

func (c *Codec) getAmount() *XRPAmountJSON {
	if n := len(c.amounts); n > 0 {
		a := c.amounts[n-1]
		c.amounts = c.amounts[:n-1]
		return a
	}
	return new(XRPAmountJSON)
}

// setAmount mirrors the nil-for-zero convention of the original
// rpcserve.amountJSON helper, recycling amount structs through the codec.
func (c *Codec) setAmount(dst **XRPAmountJSON, a xrp.Amount) {
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
