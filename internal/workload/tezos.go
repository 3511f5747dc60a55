package workload

import (
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/tezos"
)

// TezosOptions parameterizes the Tezos scenario.
type TezosOptions struct {
	// Scale is the time-dilation divisor S (default 100 — about 1,325
	// blocks and ~33k operations for the full window).
	Scale int64
	Seed  int64
}

// tezosBakers is the size of the baker set. Main net had ~450 bakers in
// late 2019; 150 is enough for the 32 endorsement slots to land on ~23
// distinct bakers per block, the paper's observed endorsement-operation
// rate.
const tezosBakers = 150

// TezosScenario is the built scenario.
type TezosScenario struct {
	Chain        *tezos.Chain
	Opts         TezosOptions
	BlocksPerDay float64

	// The Figure 6 actor addresses.
	HotWallet, Airdropper, FanThird, FanMoon tezos.Address
	KTDistributor                            tezos.Address
	users                                    []tezos.Address
}

// Full-scale Tezos calendar: 1,440 blocks per day (60 s interval).
const tezosFullBlocksPerDay = 1440

const mutezPerXTZ = int64(1_000_000)

// tezosDailyRates are full-scale operations per day from Figure 1 over 92
// days.
var tezosDailyRates = struct {
	transactions float64
	reveals      float64
	seedNonces   float64
	doubleBaking float64
	delegations  float64
	originations float64
	activations  float64
}{
	transactions: 6_515, // 599,366 / 92
	reveals:      311,   // 28,626 / 92
	seedNonces:   311,
	doubleBaking: 4.0 / 92, // 4 double-baking accusations in the window
	delegations:  159,      // 14,611 / 92
	originations: 22.5,     // 2,073 / 92
	activations:  10.4,     // 960 / 92
}

// Figure 6 sender profiles: full-scale sent counts over the window and the
// average transactions per receiver that shape each sender's fan-out.
var tezosFanOuts = []struct {
	label      string
	totalSent  float64
	avgPerRecv float64
}{
	{"hotwallet", 43_099, 28.58},
	{"airdropper", 38_417, 1.0},
	{"fanthird", 25_631, 46.35},
	{"fanmoon", 21_691, 33.32},
	{"ktdistrib", 19_649, 15.35},
}

// BuildTezos constructs the chain, bakers and actor accounts.
func BuildTezos(opts TezosOptions) (*TezosScenario, error) {
	if opts.Scale < 1 {
		opts.Scale = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 22
	}
	cfg := tezos.DefaultConfig(opts.Scale)
	cfg.Seed = opts.Seed
	cfg.EndorsementParticipation = 0.75
	cfg.Governance.BlocksPerPeriod = 32_768 / opts.Scale
	if cfg.Governance.BlocksPerPeriod < 4 {
		cfg.Governance.BlocksPerPeriod = 4
	}
	c := tezos.New(cfg)

	rng := chain.NewRNG(opts.Seed)
	for i := 0; i < tezosBakers; i++ {
		stake := (10_000 + rng.Int63n(90_000)) * mutezPerXTZ
		if err := c.RegisterBaker(tezos.NewImplicitAddress(fmt.Sprintf("baker-%03d", i)), stake); err != nil {
			return nil, err
		}
	}

	s := &TezosScenario{
		Chain:         c,
		Opts:          opts,
		BlocksPerDay:  float64(tezosFullBlocksPerDay) / float64(opts.Scale),
		HotWallet:     tezos.NewImplicitAddress("hotwallet"),
		Airdropper:    tezos.NewImplicitAddress("airdropper"),
		FanThird:      tezos.NewImplicitAddress("fanthird"),
		FanMoon:       tezos.NewImplicitAddress("fanmoon"),
		KTDistributor: tezos.NewOriginatedAddress("ktdistrib"),
	}
	for _, addr := range []tezos.Address{s.HotWallet, s.Airdropper, s.FanThird, s.FanMoon} {
		acct := c.FundAccount(addr, 5_000_000*mutezPerXTZ)
		acct.Revealed = true
	}
	// The KT1 distributor is an originated contract managed by the hot
	// wallet (4 of the 5 top senders in Figure 6 are regular accounts;
	// this one is the contract).
	kt := c.FundAccount(s.KTDistributor, 5_000_000*mutezPerXTZ)
	kt.Revealed = true
	kt.Manager = s.HotWallet

	for i := 0; i < 60; i++ {
		addr := tezos.NewImplicitAddress(fmt.Sprintf("user-%03d", i))
		acct := c.FundAccount(addr, 50_000*mutezPerXTZ)
		acct.Revealed = true
		s.users = append(s.users, addr)
	}
	return s, nil
}

// Run simulates the window and returns the number of blocks produced.
func (s *TezosScenario) Run() (int, error) {
	c := s.Chain
	rng := chain.NewRNG(s.Opts.Seed + 1)
	bpd := float64(tezosFullBlocksPerDay)

	// Fan-out senders keep their Figure 6 per-receiver averages at any
	// scale by shrinking their receiver pools with their totals.
	totalBlocks := float64(chain.ObservationEnd.Sub(chain.ObservationStart)) / float64(60*time.Second) / float64(s.Opts.Scale)
	type fanState struct {
		em     Emitter
		sender tezos.Address
		pool   []tezos.Address
		fresh  int // airdrop mode: always a new receiver
	}
	fans := make([]*fanState, 0, len(tezosFanOuts))
	for _, f := range tezosFanOuts {
		fs := &fanState{
			em:     Emitter{Rate: PerBlock(f.totalSent/92, bpd)},
			sender: s.senderFor(f.label),
		}
		expectedSent := PerBlock(f.totalSent/92, bpd) * totalBlocks
		poolSize := int(expectedSent/f.avgPerRecv + 0.5)
		if f.avgPerRecv <= 1 {
			fs.fresh = 1
		}
		if poolSize < 1 {
			poolSize = 1
		}
		for i := 0; i < poolSize; i++ {
			addr := tezos.NewImplicitAddress(fmt.Sprintf("%s-recv-%05d", f.label, i))
			c.FundAccount(addr, 1*mutezPerXTZ)
			fs.pool = append(fs.pool, addr)
		}
		fans = append(fans, fs)
	}

	em := struct {
		background, reveals, seedNonces, doubleBaking, delegations, originations, activations Emitter
	}{
		background:   Emitter{Rate: PerBlock(tezosDailyRates.transactions-1613, bpd)}, // fan-outs carry 1,613/day
		reveals:      Emitter{Rate: PerBlock(tezosDailyRates.reveals, bpd)},
		seedNonces:   Emitter{Rate: PerBlock(tezosDailyRates.seedNonces, bpd)},
		doubleBaking: Emitter{Rate: PerBlock(tezosDailyRates.doubleBaking, bpd)},
		delegations:  Emitter{Rate: PerBlock(tezosDailyRates.delegations, bpd)},
		originations: Emitter{Rate: PerBlock(tezosDailyRates.originations, bpd)},
		activations:  Emitter{Rate: PerBlock(tezosDailyRates.activations, bpd)},
	}

	freshCounter := 0
	blocks := 0
	for c.Now().Before(chain.ObservationEnd) {
		// Background peer-to-peer transactions.
		for i, n := 0, em.background.Next(); i < n; i++ {
			from := chain.Pick(rng, s.users)
			to := chain.Pick(rng, s.users)
			if from == to {
				continue
			}
			c.Inject(tezos.Operation{
				Kind: tezos.KindTransaction, Source: from, Destination: to,
				Amount: rng.Int63n(100*mutezPerXTZ) + 1, Fee: 1420,
			})
		}
		// Fan-out senders.
		for _, fs := range fans {
			for i, n := 0, fs.em.Next(); i < n; i++ {
				var to tezos.Address
				if fs.fresh == 1 {
					to = tezos.NewImplicitAddress(fmt.Sprintf("fresh-%06d", freshCounter))
					freshCounter++
					c.FundAccount(to, 0)
				} else {
					to = chain.Pick(rng, fs.pool)
				}
				c.Inject(tezos.Operation{
					Kind: tezos.KindTransaction, Source: fs.sender, Destination: to,
					Amount: rng.Int63n(5*mutezPerXTZ) + 1, Fee: 1420,
				})
			}
		}
		// Account lifecycle operations.
		for i, n := 0, em.activations.Next(); i < n; i++ {
			addr := tezos.NewImplicitAddress(fmt.Sprintf("fundraiser-%06d", freshCounter))
			freshCounter++
			c.Inject(tezos.Operation{Kind: tezos.KindActivation, Source: addr, Amount: 1000 * mutezPerXTZ})
		}
		for i, n := 0, em.reveals.Next(); i < n; i++ {
			addr := tezos.NewImplicitAddress(fmt.Sprintf("revealer-%06d", freshCounter))
			freshCounter++
			c.FundAccount(addr, 10*mutezPerXTZ)
			c.Inject(tezos.Operation{Kind: tezos.KindReveal, Source: addr})
		}
		for i, n := 0, em.delegations.Next(); i < n; i++ {
			baker := c.Bakers()[rng.Intn(len(c.Bakers()))].Address
			c.Inject(tezos.Operation{
				Kind: tezos.KindDelegation, Source: chain.Pick(rng, s.users), Delegate: baker,
			})
		}
		for i, n := 0, em.originations.Next(); i < n; i++ {
			kt := tezos.NewOriginatedAddress(fmt.Sprintf("contract-%06d", freshCounter))
			freshCounter++
			c.Inject(tezos.Operation{
				Kind: tezos.KindOrigination, Source: chain.Pick(rng, s.users),
				Destination: kt, Amount: 10 * mutezPerXTZ, Fee: 5000,
			})
		}
		for i, n := 0, em.seedNonces.Next(); i < n; i++ {
			c.Inject(tezos.Operation{
				Kind: tezos.KindSeedNonce, Source: c.Bakers()[rng.Intn(len(c.Bakers()))].Address,
			})
		}
		for i, n := 0, em.doubleBaking.Next(); i < n; i++ {
			c.Inject(tezos.Operation{
				Kind: tezos.KindDoubleBaking, Source: c.Bakers()[rng.Intn(len(c.Bakers()))].Address,
			})
		}
		if _, err := c.ProduceBlock(); err != nil {
			return blocks, err
		}
		blocks++
	}
	return blocks, nil
}

func (s *TezosScenario) senderFor(label string) tezos.Address {
	switch label {
	case "hotwallet":
		return s.HotWallet
	case "airdropper":
		return s.Airdropper
	case "fanthird":
		return s.FanThird
	case "fanmoon":
		return s.FanMoon
	default:
		return s.KTDistributor
	}
}

// GovernanceOptions parameterizes the Babylon 2.0 replay (§4.2, Figure 9).
type GovernanceOptions struct {
	Scale int64 // default 100
	Seed  int64
}

// governanceBakers is the size of the replay's baker set: the foundation
// plus a Pareto tail.
const governanceBakers = 100

// GovernanceScenario replays the amendment timeline: proposal period from
// July 17, 2019 with Babylon upvotes slowly accumulating and Babylon 2.0
// overtaking after its August 5 release; a nay-free exploration period with
// the foundation abstaining; a silent testing period; and a promotion
// period with ~15 % nay votes after the Ledger breakage.
type GovernanceScenario struct {
	Chain *tezos.Chain
	Opts  GovernanceOptions
}

// Babylon proposal hashes (shortened stand-ins for the real b58 hashes).
const (
	ProposalBabylon  = "PsBABY5nk"
	ProposalBabylon2 = "PsBABY5HQ" // Babylon 2.0, the promoted one
)

// BuildTezosGovernance constructs the chain with a realistic roll
// distribution (one dominant foundation baker, a heavy tail of small ones).
func BuildTezosGovernance(opts GovernanceOptions) (*GovernanceScenario, error) {
	if opts.Scale < 1 {
		opts.Scale = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 33
	}
	cfg := tezos.DefaultConfig(opts.Scale)
	cfg.Seed = opts.Seed
	cfg.Start = time.Date(2019, time.July, 17, 0, 0, 0, 0, time.UTC)
	// Each voting period lasted roughly 23 days on main net.
	cfg.Governance.BlocksPerPeriod = int64(23*tezosFullBlocksPerDay) / opts.Scale
	if cfg.Governance.BlocksPerPeriod < 8 {
		cfg.Governance.BlocksPerPeriod = 8
	}
	// The quorum at the Babylon exploration vote was below the observed
	// 81 % participation.
	cfg.Governance.InitialQuorum = 0.70
	c := tezos.New(cfg)

	rng := chain.NewRNG(opts.Seed)
	// Foundation baker with ~8k rolls, then a Pareto tail.
	if err := c.RegisterBaker(tezos.NewImplicitAddress("foundation"), 8_000*10_000*mutezPerXTZ); err != nil {
		return nil, err
	}
	for i := 1; i < governanceBakers; i++ {
		rolls := int64(rng.Pareto(30, 1.3))
		if rolls > 2000 {
			rolls = 2000
		}
		stake := rolls * 10_000 * mutezPerXTZ
		if err := c.RegisterBaker(tezos.NewImplicitAddress(fmt.Sprintf("gov-baker-%03d", i)), stake); err != nil {
			return nil, err
		}
	}
	return &GovernanceScenario{Chain: c, Opts: opts}, nil
}

// Run drives the chain through proposal, exploration, testing and promotion
// and returns the number of blocks produced. The amendment must end
// promoted; an error is returned otherwise.
func (g *GovernanceScenario) Run() (int, error) {
	c := g.Chain
	gov := c.Governance()
	rng := chain.NewRNG(g.Opts.Seed + 7)
	bakers := c.Bakers()
	foundation := bakers[0].Address

	// Participation sets, fixed up front for determinism. The foundation
	// participates in every vote (its policy is to explicitly abstain), and
	// its stake is what carries the roll-weighted quorum.
	proposalVoters := withFoundation(pickFraction(rng, bakers, 0.49), bakers[0]) // ~49 % participation
	babylonEarly := pickFraction(rng, proposalVoters, 0.5)
	explorationVoters := withFoundation(pickFraction(rng, bakers, 0.81), bakers[0]) // ~81 %
	promotionVoters := withFoundation(pickFraction(rng, bakers, 0.80), bakers[0])

	// Promotion nay voters: ~13 % of the non-abstaining rolls, mirroring
	// the post-Ledger-breakage backlash.
	nayVoters := make(map[tezos.Address]bool)
	var votingRolls, nayRolls int64
	for _, b := range promotionVoters {
		if b.Address != foundation {
			votingRolls += b.Rolls()
		}
	}
	for _, b := range promotionVoters {
		if b.Address == foundation {
			continue
		}
		// Never push nay past 16 % of the yay+nay rolls: the amendment
		// still clears the 80 % supermajority, as it did on main net.
		if (nayRolls+b.Rolls())*100 <= votingRolls*16 && nayRolls*100 < votingRolls*13 {
			nayVoters[b.Address] = true
			nayRolls += b.Rolls()
		}
	}

	type pending struct {
		op tezos.Operation
	}
	var queue []pending
	enqueueSpread := func(ops []tezos.Operation) {
		for _, op := range ops {
			queue = append(queue, pending{op: op})
		}
	}

	period := gov.Period()
	blocks := 0
	schedule := func() {
		queue = queue[:0]
		switch gov.Period() {
		case tezos.PeriodProposal:
			var ops []tezos.Operation
			// Babylon first (early voters), Babylon 2.0 after its release
			// gathers everyone including the early voters again.
			for _, b := range babylonEarly {
				ops = append(ops, tezos.Operation{Kind: tezos.KindProposals, Source: b.Address, Proposal: ProposalBabylon})
			}
			for _, b := range proposalVoters {
				ops = append(ops, tezos.Operation{Kind: tezos.KindProposals, Source: b.Address, Proposal: ProposalBabylon2})
			}
			enqueueSpread(ops)
		case tezos.PeriodExploration:
			var ops []tezos.Operation
			for _, b := range explorationVoters {
				vote := tezos.VoteYay
				if b.Address == foundation {
					vote = tezos.VotePass // the foundation always abstains
				}
				ops = append(ops, tezos.Operation{Kind: tezos.KindBallot, Source: b.Address, Proposal: ProposalBabylon2, Ballot: vote})
			}
			enqueueSpread(ops)
		case tezos.PeriodPromotion:
			var ops []tezos.Operation
			for _, b := range promotionVoters {
				vote := tezos.VoteYay
				switch {
				case b.Address == foundation:
					vote = tezos.VotePass
				case nayVoters[b.Address]:
					vote = tezos.VoteNay
				}
				ops = append(ops, tezos.Operation{Kind: tezos.KindBallot, Source: b.Address, Proposal: ProposalBabylon2, Ballot: vote})
			}
			enqueueSpread(ops)
		}
	}
	schedule()

	// Spread each period's votes across roughly 80 % of its blocks so the
	// Figure 9 curves accumulate over time instead of jumping.
	paceFor := func() float64 {
		span := float64(tezos.DefaultGovernanceConfig().BlocksPerPeriod)
		if bp := int64(23*tezosFullBlocksPerDay) / g.Opts.Scale; bp > 0 {
			span = float64(bp)
		}
		if len(queue) == 0 {
			return 0
		}
		return float64(len(queue)) / (span * 0.8)
	}
	pace := Emitter{Rate: paceFor()}

	for i := 0; i < 100_000; i++ {
		if len(gov.Promoted()) > 0 {
			return blocks, nil
		}
		n := pace.Next()
		if n == 0 && len(queue) > 0 && rng.Bool(0.05) {
			n = 1 // keep trickling even at very small scales
		}
		for j := 0; j < n && len(queue) > 0; j++ {
			c.Inject(queue[0].op)
			queue = queue[1:]
		}
		if _, err := c.ProduceBlock(); err != nil {
			return blocks, err
		}
		blocks++
		if p := gov.Period(); p != period {
			period = p
			schedule()
			pace = Emitter{Rate: paceFor()}
		}
	}
	return blocks, fmt.Errorf("workload: governance run did not promote %s", ProposalBabylon2)
}

func pickFraction(rng *chain.RNG, bakers []tezos.Baker, frac float64) []tezos.Baker {
	out := make([]tezos.Baker, 0, len(bakers))
	for _, b := range bakers {
		if rng.Bool(frac) {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = append(out, bakers[0])
	}
	return out
}

// withFoundation guarantees the foundation baker appears in a voter set.
func withFoundation(voters []tezos.Baker, foundation tezos.Baker) []tezos.Baker {
	for _, v := range voters {
		if v.Address == foundation.Address {
			return voters
		}
	}
	return append([]tezos.Baker{foundation}, voters...)
}
