package eos

import (
	"time"

	"repro/internal/chain"
)

// PermissionLevel identifies the actor authorizing an action, mirroring
// eosio's {actor, permission} pairs.
type PermissionLevel struct {
	Actor      Name   `json:"actor"`
	Permission string `json:"permission"`
}

// Action is one contract invocation. Account is the contract that defines
// the action, ActionName the method, and Data its decoded payload. Because
// non-system contracts define arbitrary actions (the paper stresses how this
// complicates classification), Data is a free-form string map with
// conventional keys ("from", "to", "quantity", "memo", "buyer", "seller").
type Action struct {
	Account       Name              `json:"account"`
	ActionName    Name              `json:"name"`
	Authorization []PermissionLevel `json:"authorization"`
	Data          map[string]string `json:"data"`
	// Inline marks actions emitted by contracts during execution rather
	// than signed by users (e.g. the EIDOS refund leg of a boomerang).
	Inline bool `json:"inline,omitempty"`
}

// Actor returns the first authorizer, or 0 when the action carries none.
func (a Action) Actor() Name {
	if len(a.Authorization) == 0 {
		return 0
	}
	return a.Authorization[0].Actor
}

// NewAction builds a user-signed action authorized by actor.
func NewAction(contract, name, actor Name, data map[string]string) Action {
	if data == nil {
		data = map[string]string{}
	}
	return Action{
		Account:       contract,
		ActionName:    name,
		Authorization: []PermissionLevel{{Actor: actor, Permission: "active"}},
		Data:          data,
	}
}

// Transaction groups actions executed atomically. ID is assigned when the
// transaction is accepted into a block.
type Transaction struct {
	ID      chain.Hash `json:"id"`
	Actions []Action   `json:"actions"`
}

// Block is a produced EOS block.
type Block struct {
	Num          uint32        `json:"block_num"`
	ID           chain.Hash    `json:"id"`
	Previous     chain.Hash    `json:"previous"`
	Timestamp    time.Time     `json:"timestamp"`
	Producer     Name          `json:"producer"`
	Transactions []Transaction `json:"transactions"`
}

// Account is the on-chain account record.
type Account struct {
	Name       Name
	Created    time.Time
	Privileged bool      // eosio, eosio.msig, eosio.wrap bypass authorization
	System     bool      // created at chain instantiation, managed by BPs
	Creator    Name      // account that ran newaccount
	Resources  Resources // CPU/NET stake and RAM holdings
}

// Common action names, parsed once.
var (
	ActTransfer     = MustName("transfer")
	ActNewAccount   = MustName("newaccount")
	ActBidName      = MustName("bidname")
	ActDeposit      = MustName("deposit")
	ActUpdateAuth   = MustName("updateauth")
	ActLinkAuth     = MustName("linkauth")
	ActDelegateBW   = MustName("delegatebw")
	ActUndelegateBW = MustName("undelegatebw")
	ActBuyRAM       = MustName("buyram")
	ActBuyRAMBytes  = MustName("buyrambytes")
	ActRentCPU      = MustName("rentcpu")
	ActVoteProducer = MustName("voteproducer")
)
