package eos

import (
	"fmt"

	"repro/internal/chain"
)

// TokenState tracks balances for every token standard contract on the chain
// (eosio.token for EOS itself, eidosonecoin for EIDOS, lynxtoken123, …).
// Balances are keyed by (contract, symbol, holder), matching how eosio.token
// scopes its tables.
type TokenState struct {
	balances map[tokenKey]int64
	supply   map[supplyKey]int64
	maxIssue map[supplyKey]int64
	// precision per (contract, symbol); EOS uses 4, EIDOS 4.
	precision map[supplyKey]uint8

	// journal records pre-images while a transaction executes so the chain
	// can roll back a partially applied multi-action transaction.
	journalBal map[tokenKey]int64
	journalSup map[supplyKey]int64
}

// Begin starts recording pre-images for rollback. Nested Begins are not
// supported; the chain serializes transaction execution.
func (t *TokenState) Begin() {
	t.journalBal = make(map[tokenKey]int64)
	t.journalSup = make(map[supplyKey]int64)
}

// Commit discards the journal, making the transaction's effects permanent.
func (t *TokenState) Commit() {
	t.journalBal, t.journalSup = nil, nil
}

// Rollback restores every balance and supply touched since Begin.
func (t *TokenState) Rollback() {
	for k, v := range t.journalBal {
		if v == 0 {
			delete(t.balances, k)
		} else {
			t.balances[k] = v
		}
	}
	for k, v := range t.journalSup {
		if v == 0 {
			delete(t.supply, k)
		} else {
			t.supply[k] = v
		}
	}
	t.journalBal, t.journalSup = nil, nil
}

func (t *TokenState) setBalance(k tokenKey, v int64) {
	if t.journalBal != nil {
		if _, seen := t.journalBal[k]; !seen {
			t.journalBal[k] = t.balances[k]
		}
	}
	t.balances[k] = v
}

func (t *TokenState) setSupply(k supplyKey, v int64) {
	if t.journalSup != nil {
		if _, seen := t.journalSup[k]; !seen {
			t.journalSup[k] = t.supply[k]
		}
	}
	t.supply[k] = v
}

type tokenKey struct {
	Contract Name
	Symbol   string
	Holder   Name
}

type supplyKey struct {
	Contract Name
	Symbol   string
}

// NewTokenState returns an empty token universe.
func NewTokenState() *TokenState {
	return &TokenState{
		balances:  make(map[tokenKey]int64),
		supply:    make(map[supplyKey]int64),
		maxIssue:  make(map[supplyKey]int64),
		precision: make(map[supplyKey]uint8),
	}
}

// Create registers a new token under contract with a maximum supply,
// mirroring eosio.token::create.
func (t *TokenState) Create(contract Name, symbol string, precision uint8, maxSupply int64) error {
	k := supplyKey{contract, symbol}
	if _, ok := t.precision[k]; ok {
		return fmt.Errorf("eos: token %s on %s already exists", symbol, contract)
	}
	t.precision[k] = precision
	t.maxIssue[k] = maxSupply
	return nil
}

// Issue mints quantity to holder, mirroring eosio.token::issue.
func (t *TokenState) Issue(contract Name, holder Name, quantity chain.Asset) error {
	k := supplyKey{contract, quantity.Symbol}
	prec, ok := t.precision[k]
	if !ok {
		return fmt.Errorf("eos: token %s on %s not created", quantity.Symbol, contract)
	}
	if prec != quantity.Precision {
		return fmt.Errorf("eos: precision mismatch issuing %s", quantity)
	}
	if quantity.Amount <= 0 {
		return fmt.Errorf("eos: must issue positive quantity")
	}
	if t.supply[k]+quantity.Amount > t.maxIssue[k] {
		return fmt.Errorf("eos: issue would exceed max supply of %s", quantity.Symbol)
	}
	t.setSupply(k, t.supply[k]+quantity.Amount)
	hk := tokenKey{contract, quantity.Symbol, holder}
	t.setBalance(hk, t.balances[hk]+quantity.Amount)
	return nil
}

// Transfer moves quantity from one holder to another. It enforces the
// overdraw rule that makes EOS transfers meaningful value movements.
func (t *TokenState) Transfer(contract Name, from, to Name, quantity chain.Asset) error {
	if quantity.Amount <= 0 {
		return fmt.Errorf("eos: must transfer positive quantity, got %s", quantity)
	}
	if from == to {
		return fmt.Errorf("eos: cannot transfer to self")
	}
	k := supplyKey{contract, quantity.Symbol}
	if _, ok := t.precision[k]; !ok {
		return fmt.Errorf("eos: token %s on %s not created", quantity.Symbol, contract)
	}
	fk := tokenKey{contract, quantity.Symbol, from}
	if t.balances[fk] < quantity.Amount {
		return fmt.Errorf("eos: overdrawn balance: %s has %d, needs %d %s",
			from, t.balances[fk], quantity.Amount, quantity.Symbol)
	}
	tk := tokenKey{contract, quantity.Symbol, to}
	t.setBalance(fk, t.balances[fk]-quantity.Amount)
	t.setBalance(tk, t.balances[tk]+quantity.Amount)
	return nil
}

// Balance returns holder's balance of symbol under contract.
func (t *TokenState) Balance(contract, holder Name, symbol string) chain.Asset {
	k := supplyKey{contract, symbol}
	return chain.Asset{
		Amount:    t.balances[tokenKey{contract, symbol, holder}],
		Precision: t.precision[k],
		Symbol:    symbol,
	}
}
