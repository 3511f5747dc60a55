package wire

import "encoding/json"

// AppendTezosBlock renders b as octez-style block JSON, byte-identical to
// encoding/json.Marshal of the same struct, appending to dst.
func (c *Codec) AppendTezosBlock(dst []byte, b *TezosBlockJSON) []byte {
	dst = append(dst, `{"level":`...)
	dst = appendInt(dst, b.Level)
	dst = appendKey(dst, "hash")
	dst = appendJSONString(dst, b.Hash)
	dst = appendKey(dst, "predecessor")
	dst = appendJSONString(dst, b.Predecessor)
	dst = appendKey(dst, "timestamp")
	dst = appendJSONString(dst, b.Timestamp)
	dst = appendKey(dst, "baker")
	dst = appendJSONString(dst, b.Baker)
	dst = appendKey(dst, "operations")
	if b.Operations == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range b.Operations {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendTezosOperation(dst, &b.Operations[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendTezosOperation(dst []byte, op *TezosOperationJSON) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, op.Kind)
	if op.Source != "" {
		dst = appendKey(dst, "source")
		dst = appendJSONString(dst, op.Source)
	}
	if op.Destination != "" {
		dst = appendKey(dst, "destination")
		dst = appendJSONString(dst, op.Destination)
	}
	if op.Amount != 0 {
		dst = appendKey(dst, "amount")
		dst = appendInt(dst, op.Amount)
	}
	if op.Fee != 0 {
		dst = appendKey(dst, "fee")
		dst = appendInt(dst, op.Fee)
	}
	if op.Level != 0 {
		dst = appendKey(dst, "level")
		dst = appendInt(dst, op.Level)
	}
	if op.SlotCount != 0 {
		dst = appendKey(dst, "slot_count")
		dst = appendInt(dst, int64(op.SlotCount))
	}
	if op.Proposal != "" {
		dst = appendKey(dst, "proposal")
		dst = appendJSONString(dst, op.Proposal)
	}
	if op.Ballot != "" {
		dst = appendKey(dst, "ballot")
		dst = appendJSONString(dst, op.Ballot)
	}
	if op.Rolls != 0 {
		dst = appendKey(dst, "rolls")
		dst = appendInt(dst, op.Rolls)
	}
	if op.Delegate != "" {
		dst = appendKey(dst, "delegate")
		dst = appendJSONString(dst, op.Delegate)
	}
	return append(dst, '}')
}

// DecodeTezosBlock parses raw into the (typically pooled) projection,
// reusing its operation capacity; see DecodeEOSBlock for the fallback
// contract.
func (c *Codec) DecodeTezosBlock(raw []byte, into *TezosBlock) error {
	if c.decodeTezosBlock(raw, into) == nil {
		return nil
	}
	var full TezosBlockJSON
	if err := json.Unmarshal(raw, &full); err != nil {
		return err
	}
	ProjectTezosBlock(&full, into)
	return nil
}

// ProjectTezosBlock fills into with what the aggregators read of full; see
// ProjectEOSBlock.
func ProjectTezosBlock(full *TezosBlockJSON, into *TezosBlock) {
	into.Timestamp = full.Timestamp
	into.Operations = into.Operations[:0]
	for i := range full.Operations {
		src := &full.Operations[i]
		var op *TezosOperation
		into.Operations, op = grow(into.Operations)
		*op = TezosOperation{
			Kind: src.Kind, Source: src.Source, Destination: src.Destination,
			Proposal: src.Proposal, Ballot: src.Ballot, Rolls: src.Rolls,
		}
	}
}

// Member keys of each Tezos object, in the order AppendTezosBlock writes
// them; see the EOS decoder for how they are used.
const (
	tezosBlockLevel = iota
	tezosBlockHash
	tezosBlockPredecessor
	tezosBlockTimestamp
	tezosBlockBaker
	tezosBlockOperations
)

const (
	tezosOpKind = iota
	tezosOpSource
	tezosOpDestination
	tezosOpAmount
	tezosOpFee
	tezosOpLevel
	tezosOpSlotCount
	tezosOpProposal
	tezosOpBallot
	tezosOpRolls
	tezosOpDelegate
)

var (
	tezosBlockKeys = newKeySet([]string{
		tezosBlockLevel: "level", tezosBlockHash: "hash", tezosBlockPredecessor: "predecessor",
		tezosBlockTimestamp: "timestamp", tezosBlockBaker: "baker", tezosBlockOperations: "operations",
	})
	tezosOpKeys = newKeySet([]string{
		tezosOpKind: "kind", tezosOpSource: "source", tezosOpDestination: "destination",
		tezosOpAmount: "amount", tezosOpFee: "fee", tezosOpLevel: "level", tezosOpSlotCount: "slot_count",
		tezosOpProposal: "proposal", tezosOpBallot: "ballot", tezosOpRolls: "rolls", tezosOpDelegate: "delegate",
	})
)

func (c *Codec) decodeTezosBlock(raw []byte, into *TezosBlock) error {
	l := &c.lex
	l.reset(raw)
	into.Timestamp = ""
	into.Operations = into.Operations[:0]
	var seen uint8
	err := l.object(tezosBlockKeys, func(i int, key []byte) error {
		switch i {
		case tezosBlockLevel:
			return l.decodeInt64(nil)
		case tezosBlockHash, tezosBlockPredecessor, tezosBlockBaker:
			return c.decodeStr(nil)
		case tezosBlockTimestamp:
			return c.decodeStr(&into.Timestamp)
		case tezosBlockOperations:
			if read, err := l.first(&seen, 1); !read {
				return err
			}
			return l.array(func() error {
				var op *TezosOperation
				into.Operations, op = grow(into.Operations)
				*op = TezosOperation{}
				return c.decodeTezosOperation(op)
			})
		}
		return l.skipUnknown(key, tezosBlockKeys.names)
	})
	if err != nil {
		return err
	}
	return l.trailing()
}

func (c *Codec) decodeTezosOperation(op *TezosOperation) error {
	l := &c.lex
	return l.object(tezosOpKeys, func(i int, key []byte) error {
		switch i {
		case tezosOpKind:
			return c.decodeStr(&op.Kind)
		case tezosOpSource:
			return c.decodeStr(&op.Source)
		case tezosOpDestination:
			return c.decodeStr(&op.Destination)
		case tezosOpAmount, tezosOpFee, tezosOpLevel:
			return l.decodeInt64(nil)
		case tezosOpSlotCount:
			return l.skipInt()
		case tezosOpProposal:
			return c.decodeStr(&op.Proposal)
		case tezosOpBallot:
			return c.decodeStr(&op.Ballot)
		case tezosOpRolls:
			return l.decodeInt64(&op.Rolls)
		case tezosOpDelegate:
			return c.decodeStr(nil)
		}
		return l.skipUnknown(key, tezosOpKeys.names)
	})
}
