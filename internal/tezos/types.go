// Package tezos simulates the Tezos blockchain: Liquid Proof-of-Stake baking
// with 32 endorsement slots per block, implicit (tz1) and originated (KT1)
// accounts, manager operations, and the four-period on-chain governance
// process whose Babylon 2.0 run the paper analyzes in §4.2.
package tezos

import (
	"time"

	"repro/internal/chain"
)

// OperationKind enumerates the operation types the paper tabulates in
// Figure 1 for Tezos.
type OperationKind string

// The operation kinds, grouped as the paper groups them: consensus related,
// governance related, and manager operations.
const (
	KindEndorsement  OperationKind = "endorsement"
	KindSeedNonce    OperationKind = "seed_nonce_revelation"
	KindDoubleBaking OperationKind = "double_baking_evidence"
	KindProposals    OperationKind = "proposals"
	KindBallot       OperationKind = "ballot"
	KindTransaction  OperationKind = "transaction"
	KindOrigination  OperationKind = "origination"
	KindReveal       OperationKind = "reveal"
	KindActivation   OperationKind = "activate_account"
	KindDelegation   OperationKind = "delegation"
)

// BallotVote is a governance ballot choice.
type BallotVote string

// Ballot choices. The Tezos Foundation's policy of always explicitly
// abstaining is why "pass" exists in the Figure 9 plots.
const (
	VoteYay  BallotVote = "yay"
	VoteNay  BallotVote = "nay"
	VotePass BallotVote = "pass"
)

// Operation is one Tezos operation. Fields are a union across kinds; unused
// fields stay zero. Amounts and fees are mutez.
type Operation struct {
	Kind        OperationKind `json:"kind"`
	Source      Address       `json:"source,omitempty"`
	Destination Address       `json:"destination,omitempty"`
	Amount      int64         `json:"amount,omitempty"`
	Fee         int64         `json:"fee,omitempty"`

	// Endorsement fields.
	Slots []int `json:"slots,omitempty"`
	Level int64 `json:"level,omitempty"` // endorsed level

	// Governance fields.
	Proposal string     `json:"proposal,omitempty"`
	Ballot   BallotVote `json:"ballot,omitempty"`
	// Rolls is the voting weight snapshot at inclusion time; real Tezos
	// derives it from the stake listings, the simulator records it inline.
	Rolls int64 `json:"rolls,omitempty"`

	// Delegation field.
	Delegate Address `json:"delegate,omitempty"`
}

// Block is one baked Tezos block.
type Block struct {
	Level       int64       `json:"level"`
	Hash        chain.Hash  `json:"hash"`
	Predecessor chain.Hash  `json:"predecessor"`
	Timestamp   time.Time   `json:"timestamp"`
	Baker       Address     `json:"baker"`
	Priority    int         `json:"priority"`
	Operations  []Operation `json:"operations"`
}
