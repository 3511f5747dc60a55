package tezos

import (
	"fmt"
	"sort"
	"time"
)

// PeriodKind is one of the four governance periods the paper's §4.2 walks
// through: proposal → exploration → testing → promotion.
type PeriodKind string

// The voting periods in protocol order.
const (
	PeriodProposal    PeriodKind = "proposal"
	PeriodExploration PeriodKind = "exploration"
	PeriodTesting     PeriodKind = "testing"
	PeriodPromotion   PeriodKind = "promotion"
)

// GovernanceConfig holds the amendment process parameters.
type GovernanceConfig struct {
	// BlocksPerPeriod is the length of each voting period in blocks
	// (main net: 8 cycles = 32,768 blocks ≈ 23 days; scaled runs shrink it
	// with the same factor as the block interval).
	BlocksPerPeriod int64
	// InitialQuorum is the starting participation quorum (fraction of total
	// rolls); main net launched at 80 % and adjusts it dynamically.
	InitialQuorum float64
}

// supermajority is the yay/(yay+nay) fraction required to pass.
const supermajority = 0.80

// DefaultGovernanceConfig returns main-net parameters sized for scaled runs.
func DefaultGovernanceConfig() GovernanceConfig {
	return GovernanceConfig{
		BlocksPerPeriod: 33, // 32,768 at TimeScale 1000, rounded
		InitialQuorum:   0.75,
	}
}

// VoteEvent records one governance action for the Figure 9 time series.
type VoteEvent struct {
	Time     time.Time
	Level    int64
	Period   PeriodKind
	Proposal string
	Ballot   BallotVote // empty for proposal upvotes
	Rolls    int64
	Source   Address
}

// PeriodRecord summarizes one completed period.
type PeriodRecord struct {
	Kind                 PeriodKind
	StartLevel, EndLevel int64
	Proposal             string
	Yay, Nay, Pass       int64 // rolls (ballot periods only)
	Participation        float64
	Outcome              string // "advanced", "rejected", "no-proposal", "tested", "promoted"
}

// Governance is the on-chain amendment state machine. Only bakers may
// participate, and — as the paper notes — governance traffic is a rounding
// error next to endorsements: 245 operations in three months.
type Governance struct {
	cfg GovernanceConfig

	period      PeriodKind
	periodStart int64

	// Proposal-period state: upvoted rolls per proposal hash, and which
	// bakers upvoted which proposal (one upvote per baker per proposal).
	upvotes  map[string]int64
	upvoters map[string]map[Address]bool

	// Ballot-period state.
	current        string
	ballots        map[Address]BallotVote
	yay, nay, pass int64

	quorum   float64
	history  []VoteEvent
	periods  []PeriodRecord
	promoted []string
}

// NewGovernance builds the state machine starting in a proposal period.
func NewGovernance(cfg GovernanceConfig) *Governance {
	return &Governance{
		cfg:      cfg,
		period:   PeriodProposal,
		upvotes:  make(map[string]int64),
		upvoters: make(map[string]map[Address]bool),
		ballots:  make(map[Address]BallotVote),
		quorum:   cfg.InitialQuorum,
	}
}

// Period returns the active period kind.
func (g *Governance) Period() PeriodKind { return g.period }

// History returns every recorded vote event in order.
func (g *Governance) History() []VoteEvent { return g.history }

// Periods returns the completed period records.
func (g *Governance) Periods() []PeriodRecord { return g.periods }

// Promoted returns the protocols activated so far.
func (g *Governance) Promoted() []string { return g.promoted }

// ApplyProposals processes a proposals operation: a baker upvoting one or
// more proposals (the simulator carries one per operation). Votes can be
// placed on multiple proposals, which is why Babylon kept its votes when
// Babylon 2.0 appeared.
func (g *Governance) ApplyProposals(c *Chain, op *Operation, blk *Block) error {
	if g.period != PeriodProposal {
		return fmt.Errorf("tezos: proposals operation outside proposal period (%s)", g.period)
	}
	if !c.IsBaker(op.Source) {
		return ErrNotBaker
	}
	if op.Proposal == "" {
		return fmt.Errorf("%w: empty proposal hash", ErrBadOperation)
	}
	voters := g.upvoters[op.Proposal]
	if voters == nil {
		voters = make(map[Address]bool)
		g.upvoters[op.Proposal] = voters
	}
	if voters[op.Source] {
		return fmt.Errorf("tezos: %s already upvoted %s", op.Source, op.Proposal)
	}
	voters[op.Source] = true
	rolls := c.BakerRolls(op.Source)
	g.upvotes[op.Proposal] += rolls
	op.Rolls = rolls
	g.history = append(g.history, VoteEvent{
		Time: blk.Timestamp, Level: blk.Level, Period: PeriodProposal,
		Proposal: op.Proposal, Rolls: rolls, Source: op.Source,
	})
	return nil
}

// ApplyBallot processes a ballot during exploration or promotion.
func (g *Governance) ApplyBallot(c *Chain, op *Operation, blk *Block) error {
	if g.period != PeriodExploration && g.period != PeriodPromotion {
		return fmt.Errorf("tezos: ballot outside voting period (%s)", g.period)
	}
	if !c.IsBaker(op.Source) {
		return ErrNotBaker
	}
	if op.Proposal != g.current {
		return fmt.Errorf("tezos: ballot for %q but %q is under vote", op.Proposal, g.current)
	}
	if _, voted := g.ballots[op.Source]; voted {
		return fmt.Errorf("tezos: %s already voted this period", op.Source)
	}
	rolls := c.BakerRolls(op.Source)
	g.ballots[op.Source] = op.Ballot
	switch op.Ballot {
	case VoteYay:
		g.yay += rolls
	case VoteNay:
		g.nay += rolls
	case VotePass:
		g.pass += rolls
	default:
		return fmt.Errorf("%w: ballot %q", ErrBadOperation, op.Ballot)
	}
	op.Rolls = rolls
	g.history = append(g.history, VoteEvent{
		Time: blk.Timestamp, Level: blk.Level, Period: g.period,
		Proposal: op.Proposal, Ballot: op.Ballot, Rolls: rolls, Source: op.Source,
	})
	return nil
}

// ObserveBlock advances the period state machine at period boundaries.
func (g *Governance) ObserveBlock(c *Chain, blk *Block) {
	if blk.Level-g.periodStart < g.cfg.BlocksPerPeriod {
		return
	}
	totalRolls := int64(0)
	for _, b := range c.Bakers() {
		totalRolls += b.Rolls()
	}
	switch g.period {
	case PeriodProposal:
		winner, votes := g.leadingProposal()
		rec := PeriodRecord{Kind: PeriodProposal, StartLevel: g.periodStart, EndLevel: blk.Level, Proposal: winner}
		if totalRolls > 0 {
			rec.Participation = float64(g.participatingRolls(c)) / float64(totalRolls)
		}
		if winner == "" || votes == 0 {
			rec.Outcome = "no-proposal"
			g.periods = append(g.periods, rec)
			g.resetProposalPeriod(blk.Level)
			return
		}
		rec.Outcome = "advanced"
		g.periods = append(g.periods, rec)
		g.current = winner
		g.enterBallotPeriod(PeriodExploration, blk.Level)
	case PeriodExploration:
		if g.closeBallotPeriod(c, blk, totalRolls, PeriodExploration) {
			g.period = PeriodTesting
			g.periodStart = blk.Level
		} else {
			g.resetProposalPeriod(blk.Level)
		}
	case PeriodTesting:
		g.periods = append(g.periods, PeriodRecord{
			Kind: PeriodTesting, StartLevel: g.periodStart, EndLevel: blk.Level,
			Proposal: g.current, Outcome: "tested",
		})
		g.enterBallotPeriod(PeriodPromotion, blk.Level)
	case PeriodPromotion:
		if g.closeBallotPeriod(c, blk, totalRolls, PeriodPromotion) {
			g.promoted = append(g.promoted, g.current)
		}
		g.resetProposalPeriod(blk.Level)
	}
}

// leadingProposal returns the proposal with the most upvoted rolls,
// tie-broken lexicographically for determinism.
func (g *Governance) leadingProposal() (string, int64) {
	keys := make([]string, 0, len(g.upvotes))
	for k := range g.upvotes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, bestVotes := "", int64(0)
	for _, k := range keys {
		if g.upvotes[k] > bestVotes {
			best, bestVotes = k, g.upvotes[k]
		}
	}
	return best, bestVotes
}

func (g *Governance) participatingRolls(c *Chain) int64 {
	seen := make(map[Address]bool)
	for _, voters := range g.upvoters {
		for v := range voters {
			seen[v] = true
		}
	}
	var rolls int64
	for v := range seen {
		rolls += c.BakerRolls(v)
	}
	return rolls
}

func (g *Governance) enterBallotPeriod(kind PeriodKind, level int64) {
	g.period = kind
	g.periodStart = level
	g.ballots = make(map[Address]BallotVote)
	g.yay, g.nay, g.pass = 0, 0, 0
}

func (g *Governance) resetProposalPeriod(level int64) {
	g.period = PeriodProposal
	g.periodStart = level
	g.upvotes = make(map[string]int64)
	g.upvoters = make(map[string]map[Address]bool)
	g.current = ""
}

// closeBallotPeriod evaluates quorum and supermajority, records the period,
// updates the dynamic quorum, and reports whether the vote passed.
func (g *Governance) closeBallotPeriod(c *Chain, blk *Block, totalRolls int64, kind PeriodKind) bool {
	participation := 0.0
	if totalRolls > 0 {
		participation = float64(g.yay+g.nay+g.pass) / float64(totalRolls)
	}
	passed := false
	// The epsilon keeps the dynamically adjusted quorum (an EMA converging
	// toward observed participation) from exceeding participation through
	// float rounding alone.
	if participation >= g.quorum-1e-9 {
		if g.yay+g.nay > 0 && float64(g.yay)/float64(g.yay+g.nay) >= supermajority {
			passed = true
		}
	}
	outcome := "rejected"
	if passed {
		if kind == PeriodPromotion {
			outcome = "promoted"
		} else {
			outcome = "advanced"
		}
	}
	g.periods = append(g.periods, PeriodRecord{
		Kind: kind, StartLevel: g.periodStart, EndLevel: blk.Level,
		Proposal: g.current, Yay: g.yay, Nay: g.nay, Pass: g.pass,
		Participation: participation, Outcome: outcome,
	})
	// Dynamic quorum: main net nudges the quorum toward observed
	// participation (80/20 EMA).
	g.quorum = 0.8*g.quorum + 0.2*participation
	if g.quorum < 0.3 {
		g.quorum = 0.3
	}
	return passed
}
