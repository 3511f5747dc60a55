package eos

import (
	"fmt"

	"repro/internal/chain"
)

// Context is passed to contracts while they execute an action. Contracts may
// emit inline actions (Emit) which execute within the same transaction —
// the mechanism behind EIDOS's refund-plus-payout boomerang.
type Context struct {
	Chain *Chain
	TxID  chain.Hash
	depth int
	emit  func(Action) error
}

// Emit schedules an inline action for execution inside the current
// transaction. Recursion is bounded to prevent notification loops.
func (c *Context) Emit(a Action) error {
	if c.depth >= 4 {
		return fmt.Errorf("eos: inline action depth exceeded")
	}
	a.Inline = true
	return c.emit(a)
}

// Contract executes actions addressed to its account.
type Contract interface {
	Apply(ctx *Context, act Action) error
}

// TransferObserver is implemented by contracts that react to incoming token
// transfers (eosio.token notifies the recipient account). EIDOS mining works
// entirely through this hook.
type TransferObserver interface {
	OnTransfer(ctx *Context, tokenContract Name, from, to Name, quantity chain.Asset, memo string) error
}

// TokenContract implements the standard eosio.token interface for any token
// account. The paper classifies all actions on token contracts by this
// standardized interface, which is why the simulation routes both EOS and
// user tokens (EIDOS, LYNX, …) through the same code.
type TokenContract struct {
	Account Name
}

// Apply dispatches the standard token actions.
func (t *TokenContract) Apply(ctx *Context, act Action) error {
	tokens := ctx.Chain.Tokens()
	switch act.ActionName {
	case ActTransfer:
		from, err := ParseName(act.Data["from"])
		if err != nil {
			return fmt.Errorf("eos: transfer from: %w", err)
		}
		to, err := ParseName(act.Data["to"])
		if err != nil {
			return fmt.Errorf("eos: transfer to: %w", err)
		}
		qty, err := chain.ParseAsset(act.Data["quantity"])
		if err != nil {
			return fmt.Errorf("eos: transfer quantity: %w", err)
		}
		if !ctx.Chain.HasAccount(to) {
			return fmt.Errorf("eos: transfer to unknown account %s", to)
		}
		if err := tokens.Transfer(t.Account, from, to, qty); err != nil {
			return err
		}
		// Notify the recipient's contract, if it listens.
		if obs, ok := ctx.Chain.contracts[to].(TransferObserver); ok {
			return obs.OnTransfer(ctx, t.Account, from, to, qty, act.Data["memo"])
		}
		return nil
	default:
		return fmt.Errorf("eos: token contract %s has no action %s", t.Account, act.ActionName)
	}
}

// AppContract models the long tail of user-defined contracts — betting
// games, the porn site's bookkeeping, the role-playing game — whose actions
// the paper can only classify by manual labeling. It accepts any action
// (optionally restricted to a known set) and simply records invocation
// counts; the measurement pipeline never relies on their internal state.
type AppContract struct {
	Account Name
	// Known restricts accepted actions when non-empty.
	Known map[Name]bool
	// Calls counts invocations per action for test assertions.
	Calls map[Name]int64
}

// NewAppContract returns an application contract accepting the given
// actions, or any action when none are listed.
func NewAppContract(account Name, actions ...string) *AppContract {
	known := make(map[Name]bool, len(actions))
	for _, a := range actions {
		known[MustName(a)] = true
	}
	return &AppContract{Account: account, Known: known, Calls: make(map[Name]int64)}
}

// Apply accepts and records the action.
func (a *AppContract) Apply(_ *Context, act Action) error {
	if len(a.Known) > 0 && !a.Known[act.ActionName] {
		return fmt.Errorf("eos: contract %s has no action %s", a.Account, act.ActionName)
	}
	a.Calls[act.ActionName]++
	return nil
}

// OnTransfer lets application contracts receive tokens silently (games take
// deposits; the porn site takes payments).
func (a *AppContract) OnTransfer(*Context, Name, Name, Name, chain.Asset, string) error {
	return nil
}
