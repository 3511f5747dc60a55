package tezos

import (
	"testing"
)

// govChain builds a chain with nBakers equally staked bakers and short
// governance periods so tests can drive full amendment cycles.
func govChain(t *testing.T, nBakers int, blocksPerPeriod int64) *Chain {
	t.Helper()
	cfg := DefaultConfig(1000)
	cfg.Governance.BlocksPerPeriod = blocksPerPeriod
	c := New(cfg)
	for i := 0; i < nBakers; i++ {
		addr := NewImplicitAddress("gov-baker-" + string(rune('a'+i)))
		if err := c.RegisterBaker(addr, 50_000*xtz); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func produce(t *testing.T, c *Chain, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.ProduceBlock(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProposalPeriodAdvancesWithVotes(t *testing.T) {
	c := govChain(t, 10, 5)
	for _, b := range c.Bakers()[:8] {
		c.Inject(Operation{Kind: KindProposals, Source: b.Address, Proposal: "PsBabyM1"})
	}
	produce(t, c, 6)
	if got := c.Governance().Period(); got != PeriodExploration {
		t.Fatalf("period = %s, want exploration", got)
	}
	if got := c.Governance().current; got != "PsBabyM1" {
		t.Fatalf("current proposal = %q", got)
	}
}

func TestProposalPeriodRestartsWithoutVotes(t *testing.T) {
	c := govChain(t, 5, 4)
	produce(t, c, 5)
	if got := c.Governance().Period(); got != PeriodProposal {
		t.Fatalf("period = %s, want proposal restart", got)
	}
	recs := c.Governance().Periods()
	if len(recs) == 0 || recs[0].Outcome != "no-proposal" {
		t.Fatalf("period records: %+v", recs)
	}
}

func TestMultipleProposalsHighestWins(t *testing.T) {
	// Babylon vs Babylon 2.0: votes placed on the first proposal persist,
	// but the updated proposal gathering more rolls is selected.
	c := govChain(t, 10, 6)
	bakers := c.Bakers()
	for _, b := range bakers[:3] {
		c.Inject(Operation{Kind: KindProposals, Source: b.Address, Proposal: "PsBabylon"})
	}
	for _, b := range bakers[:8] {
		c.Inject(Operation{Kind: KindProposals, Source: b.Address, Proposal: "PsBabyM2"})
	}
	produce(t, c, 7)
	if got := c.Governance().current; got != "PsBabyM2" {
		t.Fatalf("winner = %q, want PsBabyM2", got)
	}
}

func TestDuplicateUpvoteRejected(t *testing.T) {
	c := govChain(t, 5, 50)
	b := c.Bakers()[0].Address
	c.Inject(Operation{Kind: KindProposals, Source: b, Proposal: "P"})
	c.Inject(Operation{Kind: KindProposals, Source: b, Proposal: "P"})
	produce(t, c, 1)
	if c.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1 (duplicate upvote)", c.Rejected)
	}
}

func TestNonBakerCannotVote(t *testing.T) {
	c := govChain(t, 5, 50)
	outsider := NewImplicitAddress("not-a-baker")
	c.FundAccount(outsider, 100*xtz).Revealed = true
	c.Inject(Operation{Kind: KindProposals, Source: outsider, Proposal: "P"})
	produce(t, c, 1)
	if c.Rejected != 1 {
		t.Fatal("non-baker proposal accepted")
	}
}

// driveFullCycle pushes an amendment through all four periods, with
// explorationNay bakers voting nay during exploration and promotionNay
// during promotion. It returns the chain.
func driveFullCycle(t *testing.T, explorationNay, promotionNay int) *Chain {
	t.Helper()
	const period = 5
	c := govChain(t, 10, period)
	bakers := c.Bakers()

	// Proposal period: everyone upvotes.
	for _, b := range bakers {
		c.Inject(Operation{Kind: KindProposals, Source: b.Address, Proposal: "PsBabyM2"})
	}
	produce(t, c, period+1)
	if c.Governance().Period() != PeriodExploration {
		t.Fatalf("expected exploration, got %s", c.Governance().Period())
	}

	// Exploration: nay voters first, the rest yay (foundation-style pass
	// for the last baker).
	for i, b := range bakers {
		vote := VoteYay
		if i < explorationNay {
			vote = VoteNay
		} else if i == len(bakers)-1 {
			vote = VotePass
		}
		c.Inject(Operation{Kind: KindBallot, Source: b.Address, Proposal: "PsBabyM2", Ballot: vote})
	}
	produce(t, c, period+1)
	return c
}

func TestAmendmentFullCyclePromoted(t *testing.T) {
	c := driveFullCycle(t, 0, 0)
	if got := c.Governance().Period(); got != PeriodTesting {
		t.Fatalf("after exploration: %s", got)
	}
	produce(t, c, 6) // testing period runs with no votes
	if got := c.Governance().Period(); got != PeriodPromotion {
		t.Fatalf("after testing: %s", got)
	}
	// Promotion: 15% nay as the paper observed for Babylon (Ledger breakage).
	bakers := c.Bakers()
	for i, b := range bakers {
		vote := VoteYay
		if i < 1 { // 1 of 10 bakers ≈ the paper's 15% nay share
			vote = VoteNay
		}
		c.Inject(Operation{Kind: KindBallot, Source: b.Address, Proposal: "PsBabyM2", Ballot: vote})
	}
	produce(t, c, 6)
	if got := c.Governance().Promoted(); len(got) != 1 || got[0] != "PsBabyM2" {
		t.Fatalf("promoted = %v", got)
	}
	if got := c.Governance().Period(); got != PeriodProposal {
		t.Fatalf("cycle did not reset: %s", got)
	}
}

func TestExplorationRejectionReturnsToProposal(t *testing.T) {
	// 5 of 10 nay votes breaks the 80% supermajority.
	c := driveFullCycle(t, 5, 0)
	if got := c.Governance().Period(); got != PeriodProposal {
		t.Fatalf("rejected exploration should reset to proposal, got %s", got)
	}
	recs := c.Governance().Periods()
	last := recs[len(recs)-1]
	if last.Kind != PeriodExploration || last.Outcome != "rejected" {
		t.Fatalf("last period record: %+v", last)
	}
}

func TestQuorumFailureRejects(t *testing.T) {
	const period = 5
	c := govChain(t, 10, period)
	for _, b := range c.Bakers() {
		c.Inject(Operation{Kind: KindProposals, Source: b.Address, Proposal: "P"})
	}
	produce(t, c, period+1)
	// Only one baker votes: participation 10% < quorum 75%.
	c.Inject(Operation{Kind: KindBallot, Source: c.Bakers()[0].Address, Proposal: "P", Ballot: VoteYay})
	produce(t, c, period+1)
	if got := c.Governance().Period(); got != PeriodProposal {
		t.Fatalf("quorum failure should reset, got %s", got)
	}
	// Dynamic quorum must have dropped toward observed participation.
	if q := c.Governance().quorum; q >= 0.75 {
		t.Fatalf("quorum did not adjust: %f", q)
	}
}

func TestBallotOutsideVotingPeriodRejected(t *testing.T) {
	c := govChain(t, 5, 50)
	c.Inject(Operation{Kind: KindBallot, Source: c.Bakers()[0].Address, Proposal: "P", Ballot: VoteYay})
	produce(t, c, 1)
	if c.Rejected != 1 {
		t.Fatal("ballot accepted during proposal period")
	}
}

func TestHistoryRecordsVoteEvents(t *testing.T) {
	c := driveFullCycle(t, 0, 0)
	hist := c.Governance().History()
	if len(hist) == 0 {
		t.Fatal("no history recorded")
	}
	var proposals, ballots int
	for _, ev := range hist {
		switch ev.Period {
		case PeriodProposal:
			proposals++
			if ev.Ballot != "" {
				t.Fatal("proposal event carries a ballot")
			}
		case PeriodExploration:
			ballots++
			if ev.Rolls <= 0 {
				t.Fatal("ballot event without rolls")
			}
		}
	}
	if proposals != 10 || ballots != 10 {
		t.Fatalf("history: %d proposals, %d ballots", proposals, ballots)
	}
}
