package workload

import (
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/xrp"
)

// XRPOptions parameterizes the XRP Ledger scenario.
type XRPOptions struct {
	// Scale is the time-dilation divisor S (default 2,000 — about 1,019
	// ledgers and ~75k transactions for the full window).
	Scale int64
	Seed  int64
}

// XRPScenario is the built scenario with handles for the explorer and the
// benchmarks.
type XRPScenario struct {
	State         *xrp.State
	Opts          XRPOptions
	LedgersPerDay float64

	// Usernames feeds the explorer directory: registered exchange and
	// gateway accounts, mirroring XRP Scan.
	Usernames map[xrp.Address]string

	// Named actors.
	Ripple, RippleEscrowee            xrp.Address
	Binance, Bithumb, Coinbase, UPbit xrp.Address
	Bittrex, Bitstamp, HuobiGlobal    xrp.Address
	BitGo, Liquid, Uphold, UPK        xrp.Address
	HuobiDeposit                      xrp.Address
	HuobiBots                         []xrp.Address
	MakerBot                          xrp.Address
	SpamHub                           xrp.Address
	SpamCluster                       []xrp.Address
	MyroneIssuer, MyroneBuyer         xrp.Address
	JunkGate                          xrp.Address
	GatehubFifth, BTC2Ripple, NoName  xrp.Address
	retail                            []xrp.Address

	// offerCancelQueue holds resting offer sequences eligible for cancel.
	offerCancelQueue []offerHandle
	// escrowReleases schedules the monthly Ripple treasury events.
	escrowReleases []escrowRelease
	// flags guards calendar events that must fire exactly once.
	flags map[string]bool
	// SetupLedgers is how many ledgers the build phase closed before the
	// observation window; they model pre-window history (gateway
	// issuance, trust lines) and the collector starts after them.
	SetupLedgers int64
}

type offerHandle struct {
	owner xrp.Address
	seq   uint32
}

type escrowRelease struct {
	finishAfter time.Time
	sequence    uint32
	done        bool
}

// Full-scale XRP calendar: ~22,154 ledgers per day (3.9 s close interval).
const xrpFullLedgersPerDay = 86_400.0 / 3.9

// Spam wave windows from Figure 3c/§4.3: late October into early November,
// and a larger one from late November into early December.
var (
	wave1Start = time.Date(2019, time.October, 24, 0, 0, 0, 0, time.UTC)
	wave1End   = time.Date(2019, time.November, 5, 0, 0, 0, 0, time.UTC)
	wave2Start = time.Date(2019, time.November, 24, 0, 0, 0, 0, time.UTC)
	wave2End   = time.Date(2019, time.December, 8, 0, 0, 0, 0, time.UTC)
)

func inWave(t time.Time) bool {
	return (t.After(wave1Start) && t.Before(wave1End)) ||
		(t.After(wave2Start) && t.Before(wave2End))
}

// BuildXRP constructs the ledger, exchange cluster, gateways, spam actors
// and the Myrone accounts.
func BuildXRP(opts XRPOptions) (*XRPScenario, error) {
	if opts.Scale < 1 {
		opts.Scale = 2000
	}
	if opts.Seed == 0 {
		opts.Seed = 44
	}
	// The real spam cluster had 5,020 accounts; scaled runs shrink it, but
	// keep it wide even at coarse scales so no single drone outranks the
	// Huobi offer bots in the Figure 8 top list.
	spamAccounts := max(int(5020/opts.Scale), 40)
	st := xrp.New(xrp.DefaultConfig(opts.Scale))

	s := &XRPScenario{
		State:         st,
		Opts:          opts,
		LedgersPerDay: xrpFullLedgersPerDay / float64(opts.Scale),
		Usernames:     make(map[xrp.Address]string),
		flags:         make(map[string]bool),
	}

	named := func(label, username string, drops int64) xrp.Address {
		addr := xrp.NewAddress(label)
		st.Fund(addr, drops)
		if username != "" {
			s.Usernames[addr] = username
		}
		return addr
	}
	const bigXRP = 20_000_000_000 * xrp.DropsPerXRP // 20B XRP treasury-scale

	s.Ripple = named("ripple", "Ripple", 5*bigXRP)
	// The treasury's operational account is part of the Ripple cluster on
	// XRP Scan; Figure 12 attributes its escrow-return payments to Ripple.
	s.RippleEscrowee = named("ripple-escrow-ops", "Ripple", 100*xrp.DropsPerXRP)
	s.State.GetAccount(s.RippleEscrowee).Parent = s.Ripple
	s.Binance = named("binance", "Binance", bigXRP)
	s.Bithumb = named("bithumb", "Bithumb", bigXRP)
	s.Coinbase = named("coinbase", "Coinbase", bigXRP)
	s.UPbit = named("upbit", "UPbit", bigXRP)
	s.Bittrex = named("bittrex", "Bittrex", bigXRP)
	s.Bitstamp = named("bitstamp", "Bitstamp", bigXRP)
	s.HuobiGlobal = named("huobi", "Huobi Global", bigXRP)
	s.BitGo = named("bitgo", "BitGo", bigXRP)
	s.Liquid = named("liquid", "Liquid", bigXRP)
	s.Uphold = named("uphold", "Uphold", bigXRP)
	s.UPK = named("upk", "UPK", bigXRP/10)
	s.GatehubFifth = named("gatehub-fifth", "Gatehub Fifth", bigXRP/100)
	s.BTC2Ripple = named("btc2ripple", "BTC 2 Ripple", bigXRP/100)
	s.NoName = named("noname-issuer", "", bigXRP/100)
	s.JunkGate = named("junk-gateway", "", bigXRP/100)

	// Huobi's deposit account requires destination tags, like all large
	// exchanges.
	s.HuobiDeposit = named("huobi-deposit", "", 1000*xrp.DropsPerXRP)
	s.State.GetAccount(s.HuobiDeposit).Parent = s.HuobiGlobal
	s.State.GetAccount(s.HuobiDeposit).RequireDestTag = true

	// The ten offer-spam bots are Huobi descendants (Figure 8): activated
	// by the Huobi account, so the explorer clusters them as
	// "Huobi Global -- descendant".
	for i := 0; i < 10; i++ {
		bot := xrp.NewAddress(fmt.Sprintf("huobi-bot-%02d", i))
		st.Fund(bot, 1_000_000*xrp.DropsPerXRP)
		st.GetAccount(bot).Parent = s.HuobiGlobal
		s.HuobiBots = append(s.HuobiBots, bot)
	}
	s.MakerBot = named("maker-bot", "", 100_000_000*xrp.DropsPerXRP)

	// Payment-spam cluster: the hub plus its activated drones.
	s.SpamHub = named("spam-hub", "", 2_000_000*xrp.DropsPerXRP)
	for i := 0; i < spamAccounts; i++ {
		drone := xrp.NewAddress(fmt.Sprintf("spam-drone-%04d", i))
		st.Fund(drone, 200*xrp.DropsPerXRP)
		st.GetAccount(drone).Parent = s.SpamHub
		s.SpamCluster = append(s.SpamCluster, drone)
	}

	// Myrone Bagalay's cluster: the issuer activated by Liquid, the buyer
	// by Uphold (§4.3).
	s.MyroneIssuer = named("myrone-issuer", "", 10_000*xrp.DropsPerXRP)
	st.GetAccount(s.MyroneIssuer).Parent = s.Liquid
	s.MyroneBuyer = named("myrone-buyer", "", 15_000_000_000*xrp.DropsPerXRP)
	st.GetAccount(s.MyroneBuyer).Parent = s.Uphold

	// Retail users.
	for i := 0; i < 40; i++ {
		addr := xrp.NewAddress(fmt.Sprintf("retail-%03d", i))
		st.Fund(addr, 50_000*xrp.DropsPerXRP)
		s.retail = append(s.retail, addr)
	}

	if err := s.setupTrustAndIOUs(); err != nil {
		return nil, err
	}
	s.setupEscrows()
	s.SetupLedgers = st.HeadIndex()
	return s, nil
}

// setupTrustAndIOUs opens the trust lines and issues the IOUs the actors
// move around: worthless hub BTC for the spammers, junk IOUs for retail
// chatter, valuable gateway USD/EUR/CNY, and the BTC IOUs whose rates
// Figure 11a tabulates.
func (s *XRPScenario) setupTrustAndIOUs() error {
	st := s.State
	trust := func(holder xrp.Address, currency string, issuer xrp.Address, limit int64) {
		st.Submit(xrp.Transaction{
			Type: xrp.TxTrustSet, Account: holder,
			LimitAmount: xrp.IOU(currency, issuer, limit),
		})
	}
	// Spam drones trust the hub's BTC.
	for _, d := range s.SpamCluster {
		trust(d, "BTC", s.SpamHub, 1_000_000_000)
	}
	// Retail trusts the junk gateway and the fiat gateways.
	for _, r := range s.retail {
		trust(r, "JNK", s.JunkGate, 1_000_000_000)
		trust(r, "USD", s.Bitstamp, 10_000_000)
		trust(r, "EUR", s.GatehubFifth, 10_000_000)
		trust(r, "CNY", s.HuobiGlobal, 10_000_000)
	}
	// The maker bot holds every BTC flavour to make markets (Figure 11a)
	// and Bitstamp USD for its continuous USD/XRP quotes.
	for _, issuer := range []xrp.Address{s.Bitstamp, s.GatehubFifth, s.BTC2Ripple, s.NoName} {
		trust(s.MakerBot, "BTC", issuer, 1_000_000)
	}
	trust(s.MakerBot, "USD", s.Bitstamp, 100_000_000)
	trust(s.MyroneBuyer, "BTC", s.MyroneIssuer, 1_000_000_000)
	// Huobi bots hold Huobi CNY to quote the CNY/XRP book.
	for _, b := range s.HuobiBots {
		trust(b, "CNY", s.HuobiGlobal, 1_000_000_000)
	}
	st.CloseLedger()

	// Issue the IOUs.
	issue := func(issuer, to xrp.Address, currency string, units int64) {
		st.Submit(xrp.Transaction{
			Type: xrp.TxPayment, Account: issuer, Destination: to,
			Amount: xrp.IOU(currency, issuer, units),
		})
	}
	for _, d := range s.SpamCluster {
		issue(s.SpamHub, d, "BTC", 1_000_000)
	}
	for _, r := range s.retail {
		issue(s.JunkGate, r, "JNK", 500_000)
		issue(s.Bitstamp, r, "USD", 50_000)
		issue(s.GatehubFifth, r, "EUR", 20_000)
		issue(s.HuobiGlobal, r, "CNY", 100_000)
	}
	for _, issuer := range []xrp.Address{s.Bitstamp, s.GatehubFifth, s.BTC2Ripple, s.NoName} {
		issue(issuer, s.MakerBot, "BTC", 10_000)
	}
	issue(s.Bitstamp, s.MakerBot, "USD", 50_000_000)
	// Note: the Myrone issuer needs no pre-issued BTC — IOU issuers create
	// value out of thin air when they pay or sell their own token.
	for _, b := range s.HuobiBots {
		issue(s.HuobiGlobal, b, "CNY", 100_000_000)
	}
	led := st.CloseLedger()
	for _, tx := range led.Transactions {
		if !tx.Result.Success() {
			return fmt.Errorf("workload: xrp setup tx %s failed: %s", tx.Type, tx.Result)
		}
	}
	return nil
}

// setupEscrows creates the Ripple treasury escrows whose releases punctuate
// the window (1B XRP on the first of each month, ~90 % returned). Amounts
// shrink with the scale divisor so the Figure 12 volume ranking stays
// intact: multiply by S to recover the main-net figures.
func (s *XRPScenario) setupEscrows() {
	st := s.State
	months := []time.Time{
		time.Date(2019, time.October, 2, 0, 0, 0, 0, time.UTC),
		time.Date(2019, time.November, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2019, time.December, 1, 0, 0, 0, 0, time.UTC),
	}
	release := 1_000_000_000 / s.Opts.Scale
	if release < 1000 {
		release = 1000
	}
	for _, m := range months {
		st.Submit(xrp.Transaction{
			Type: xrp.TxEscrowCreate, Account: s.Ripple, Destination: s.RippleEscrowee,
			Amount: xrp.XRP(release), FinishAfter: m,
		})
	}
	led := st.CloseLedger()
	for _, tx := range led.Transactions {
		if tx.Type == xrp.TxEscrowCreate && tx.Result.Success() {
			s.escrowReleases = append(s.escrowReleases, escrowRelease{
				finishAfter: tx.FinishAfter, sequence: tx.Sequence,
			})
		}
	}
}

// Run simulates the window and returns the number of ledgers closed.
func (s *XRPScenario) Run() int {
	st := s.State
	rng := chain.NewRNG(s.Opts.Seed + 1)
	lpd := xrpFullLedgersPerDay

	em := struct {
		hugeBots, midBots, makerOffers, retailOffers        Emitter
		baselinePay, wavePay, valuableXRP, valuableIOU      Emitter
		junkPay, trustSets, cancels, accountSets, pathDry   Emitter
		unfundedOffers, escrowsUser, signerList, regularKey Emitter
		botPayments, fills, rateTrades                      Emitter
	}{
		// Four heavyweight bots place ~5.5 offers/ledger each; six mid
		// bots ~0.75 each (Figure 8's 7.3 % / 1.5 % shares).
		hugeBots:     Emitter{Rate: 4 * 5.5},
		midBots:      Emitter{Rate: 6 * 0.8},
		makerOffers:  Emitter{Rate: 1.3},
		retailOffers: Emitter{Rate: 6.0},
		// Payments: baseline worthless IOU chatter plus the spam waves.
		baselinePay: Emitter{Rate: PerBlock(380_000, lpd)},
		wavePay:     Emitter{Rate: PerBlock(1_300_000, lpd)},
		// Valuable flows: large XRP transfers between exchanges and
		// gateway fiat payments.
		valuableXRP: Emitter{Rate: 1.40},
		valuableIOU: Emitter{Rate: 0.25},
		junkPay:     Emitter{Rate: 0},
		trustSets:   Emitter{Rate: PerBlock(2_825_199.0/92, lpd)},
		cancels:     Emitter{Rate: PerBlock(2_303_023.0/92, lpd)},
		accountSets: Emitter{Rate: PerBlock(119_455.0/92, lpd)},
		signerList:  Emitter{Rate: PerBlock(13_486.0/92, lpd)},
		regularKey:  Emitter{Rate: PerBlock(468.0/92, lpd)},
		escrowsUser: Emitter{Rate: PerBlock(473.0/92, lpd)},
		// Failures: dry payment paths and unfunded offers (10.7 % overall).
		pathDry:        Emitter{Rate: 3.5},
		unfundedOffers: Emitter{Rate: 3.4},
		botPayments:    Emitter{Rate: 0.02}, // rare tagged Huobi sweeps
		fills:          Emitter{Rate: 0.075},
	}
	// The Figure 11a rate-setting trades are discrete December events
	// (~40 across the month at any scale): pace them against the number of
	// ledgers this run will actually close.
	totalLedgers := chain.ObservationEnd.Sub(chain.ObservationStart).Hours() / 24 * s.LedgersPerDay
	if totalLedgers < 1 {
		totalLedgers = 1
	}
	em.rateTrades = Emitter{Rate: 48.0 / totalLedgers}

	ledgers := 0
	amendmentDone := false
	for st.Now().Before(chain.ObservationEnd) {
		now := st.Now()
		s.processEscrowReleases(now)
		s.injectOfferSpam(rng, em.hugeBots.Next(), em.midBots.Next())
		s.injectMakerActivity(rng, em.makerOffers.Next(), em.fills.Next())
		s.injectRetailOffers(rng, em.retailOffers.Next())
		s.injectPayments(rng, now, em.baselinePay.Next(), em.wavePay.Next(),
			em.valuableXRP.Next(), em.valuableIOU.Next(), em.junkPay.Next())
		s.injectHousekeeping(rng, em.trustSets.Next(), em.cancels.Next(),
			em.accountSets.Next(), em.signerList.Next(), em.regularKey.Next(), em.escrowsUser.Next())
		s.injectFailures(rng, em.pathDry.Next(), em.unfundedOffers.Next())
		s.injectRateTrades(rng, now, em.rateTrades.Next())
		for i := 0; i < em.botPayments.Next(); i++ {
			bot := chain.Pick(rng, s.HuobiBots)
			st.Submit(xrp.Transaction{
				Type: xrp.TxPayment, Account: bot, Destination: s.HuobiDeposit,
				DestinationTag: 104398, Amount: xrp.XRP(int64(rng.Intn(10_000) + 100)),
			})
		}
		if !amendmentDone && now.After(time.Date(2019, time.November, 15, 0, 0, 0, 0, time.UTC)) {
			st.Submit(xrp.Transaction{Type: xrp.TxEnableAmendment, Account: s.Ripple})
			amendmentDone = true
		}
		s.myroneEvents(now)

		led := st.CloseLedger()
		ledgers++
		// Track resting offers so cancels have something real to target.
		for _, tx := range led.Transactions {
			if tx.Type == xrp.TxOfferCreate && tx.RestingSequence != 0 && len(s.offerCancelQueue) < 4096 {
				s.offerCancelQueue = append(s.offerCancelQueue, offerHandle{tx.Account, tx.RestingSequence})
			}
		}
	}
	return ledgers
}

func (s *XRPScenario) processEscrowReleases(now time.Time) {
	st := s.State
	for i := range s.escrowReleases {
		rel := &s.escrowReleases[i]
		if rel.done || now.Before(rel.finishAfter) {
			continue
		}
		rel.done = true
		release := 1_000_000_000 / s.Opts.Scale
		if release < 1000 {
			release = 1000
		}
		// Finish the escrow, return 90 % to the treasury, spend the rest.
		st.Submit(xrp.Transaction{
			Type: xrp.TxEscrowFinish, Account: s.RippleEscrowee,
			Owner: s.Ripple, OfferSequence: rel.sequence,
		})
		st.Submit(xrp.Transaction{
			Type: xrp.TxPayment, Account: s.RippleEscrowee, Destination: s.Ripple,
			Amount: xrp.XRP(release * 9 / 10),
		})
		st.Submit(xrp.Transaction{
			Type: xrp.TxPayment, Account: s.RippleEscrowee, Destination: s.Binance,
			Amount: xrp.XRP(release/10 - 1),
		})
	}
}

// injectOfferSpam places the Huobi bots' off-market CNY/XRP quotes: never
// crossing, pure statistics inflation.
func (s *XRPScenario) injectOfferSpam(rng *chain.RNG, huge, mid int) {
	st := s.State
	place := func(bot xrp.Address) {
		// Ask far above or bid far below any plausible CNY rate.
		if rng.Bool(0.5) {
			st.Submit(xrp.Transaction{
				Type: xrp.TxOfferCreate, Account: bot,
				TakerGets: xrp.IOU("CNY", s.HuobiGlobal, int64(rng.Intn(900)+100)),
				TakerPays: xrp.XRP(int64(rng.Intn(900)+100) * 1000), // absurd ask
			})
		} else {
			st.Submit(xrp.Transaction{
				Type: xrp.TxOfferCreate, Account: bot,
				TakerGets: xrp.Drops(int64(rng.Intn(900)+100) * 1000), // dust bid
				TakerPays: xrp.IOU("CNY", s.HuobiGlobal, int64(rng.Intn(900)+100)*1000),
			})
		}
	}
	for i := 0; i < huge; i++ {
		place(s.HuobiBots[rng.Intn(4)])
	}
	for i := 0; i < mid; i++ {
		place(s.HuobiBots[4+rng.Intn(6)])
	}
}

// injectMakerActivity: the rs9tBK-style market maker quotes continuously
// and occasionally trades against a retail taker, producing the rare
// fulfilled offers.
func (s *XRPScenario) injectMakerActivity(rng *chain.RNG, offers, fills int) {
	st := s.State
	for i := 0; i < offers; i++ {
		st.Submit(xrp.Transaction{
			Type: xrp.TxOfferCreate, Account: s.MakerBot,
			TakerGets: xrp.IOU("USD", s.Bitstamp, int64(rng.Intn(50)+10)),
			TakerPays: xrp.XRP(int64(float64(rng.Intn(50)+10) * 4.9)),
		})
	}
	for i := 0; i < fills; i++ {
		// A matched pair: maker sells USD at 4.9 XRP, retail buys through.
		units := int64(rng.Intn(20) + 5)
		st.Submit(xrp.Transaction{
			Type: xrp.TxOfferCreate, Account: s.MakerBot,
			TakerGets: xrp.IOU("USD", s.Bitstamp, units),
			TakerPays: xrp.XRP(int64(float64(units) * 4.9)),
		})
		taker := chain.Pick(rng, s.retail)
		st.Submit(xrp.Transaction{
			Type: xrp.TxOfferCreate, Account: taker,
			TakerGets: xrp.XRP(int64(float64(units)*4.9) + 1),
			TakerPays: xrp.IOU("USD", s.Bitstamp, units),
		})
	}
}

func (s *XRPScenario) injectRetailOffers(rng *chain.RNG, n int) {
	st := s.State
	for i := 0; i < n; i++ {
		r := chain.Pick(rng, s.retail)
		// Off-market JNK and USD quotes that rest forever.
		if rng.Bool(0.5) {
			st.Submit(xrp.Transaction{
				Type: xrp.TxOfferCreate, Account: r,
				TakerGets: xrp.IOU("JNK", s.JunkGate, int64(rng.Intn(1000)+1)),
				TakerPays: xrp.XRP(int64(rng.Intn(1000)+1) * 100),
			})
		} else {
			st.Submit(xrp.Transaction{
				Type: xrp.TxOfferCreate, Account: r,
				TakerGets: xrp.IOU("USD", s.Bitstamp, int64(rng.Intn(100)+1)),
				TakerPays: xrp.XRP(int64(rng.Intn(100)+1) * 50),
			})
		}
	}
}

func (s *XRPScenario) injectPayments(rng *chain.RNG, now time.Time, baseline, wave, valuableXRP, valuableIOU, junk int) {
	st := s.State
	// Worthless hub-BTC shuffles (§4.3's spam), active mostly in waves.
	spamPayments := baseline / 3
	if inWave(now) {
		spamPayments += wave
	}
	for i := 0; i < spamPayments; i++ {
		from := chain.Pick(rng, s.SpamCluster)
		to := chain.Pick(rng, s.SpamCluster)
		if from == to {
			continue
		}
		st.Submit(xrp.Transaction{
			Type: xrp.TxPayment, Account: from, Destination: to,
			Amount: xrp.IOU("BTC", s.SpamHub, int64(rng.Intn(100)+1)),
		})
	}
	// Baseline worthless IOU chatter between retail users.
	for i := 0; i < baseline-spamPayments+junk; i++ {
		from := chain.Pick(rng, s.retail)
		to := chain.Pick(rng, s.retail)
		if from == to {
			continue
		}
		st.Submit(xrp.Transaction{
			Type: xrp.TxPayment, Account: from, Destination: to,
			Amount: xrp.IOU("JNK", s.JunkGate, int64(rng.Intn(500)+1)),
		})
	}
	// Valuable XRP transfers between exchange clusters, sized so the
	// Figure 12 volume ranking holds (Binance on top, Ripple ~10 %).
	exchanges := []struct {
		addr   xrp.Address
		weight float64
	}{
		{s.Binance, 5.2}, {s.Bithumb, 1.8}, {s.Coinbase, 1.5},
		{s.UPbit, 2.0}, {s.Bittrex, 2.5}, {s.Bitstamp, 1.2},
		{s.BitGo, 1.0}, {s.HuobiGlobal, 0.9}, {s.Liquid, 0.5}, {s.UPK, 0.3},
	}
	weights := make([]float64, len(exchanges))
	for i, e := range exchanges {
		weights[i] = e.weight
	}
	for i := 0; i < valuableXRP; i++ {
		from := exchanges[rng.WeightedPick(weights)].addr
		to := exchanges[rng.WeightedPick(weights)].addr
		if from == to {
			to = chain.Pick(rng, s.retail)
		}
		// ~15k XRP per transfer reproduces the 43B XRP / 92-day aggregate
		// at full scale.
		amount := int64(2_000 + rng.Intn(26_000))
		st.Submit(xrp.Transaction{
			Type: xrp.TxPayment, Account: from, Destination: to,
			Amount: xrp.XRP(amount),
		})
	}
	// Valuable fiat IOU payments (Bitstamp USD, Gatehub EUR, Huobi CNY).
	for i := 0; i < valuableIOU; i++ {
		from := chain.Pick(rng, s.retail)
		to := chain.Pick(rng, s.retail)
		if from == to {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			st.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: from, Destination: to,
				Amount: xrp.IOU("USD", s.Bitstamp, int64(rng.Intn(2000)+10))})
		case 1:
			st.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: from, Destination: to,
				Amount: xrp.IOU("EUR", s.GatehubFifth, int64(rng.Intn(300)+5))})
		case 2:
			// Cross-currency: pay XRP, deliver Bitstamp USD through the
			// maker's book (the path payments behind PATH_DRY errors).
			units := int64(rng.Intn(20) + 1)
			sendMax := xrp.XRP(units * 6) // ~4.9 XRP/USD plus slippage room
			st.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: from, Destination: to,
				Amount: xrp.IOU("USD", s.Bitstamp, units), SendMax: &sendMax})
		default:
			st.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: from, Destination: to,
				Amount: xrp.IOU("CNY", s.HuobiGlobal, int64(rng.Intn(3000)+10))})
		}
	}
}

func (s *XRPScenario) injectHousekeeping(rng *chain.RNG, trusts, cancels, acctSets, signers, regKeys, escrows int) {
	st := s.State
	for i := 0; i < trusts; i++ {
		r := chain.Pick(rng, s.retail)
		st.Submit(xrp.Transaction{
			Type: xrp.TxTrustSet, Account: r,
			LimitAmount: xrp.IOU("JNK", s.JunkGate, int64(rng.Intn(2_000_000)+1000)),
		})
	}
	for i := 0; i < cancels; i++ {
		if len(s.offerCancelQueue) > 0 {
			h := s.offerCancelQueue[0]
			s.offerCancelQueue = s.offerCancelQueue[1:]
			st.Submit(xrp.Transaction{Type: xrp.TxOfferCancel, Account: h.owner, OfferSequence: h.seq})
		} else {
			r := chain.Pick(rng, s.retail)
			st.Submit(xrp.Transaction{Type: xrp.TxOfferCancel, Account: r, OfferSequence: uint32(rng.Intn(1000) + 1)})
		}
	}
	for i := 0; i < acctSets; i++ {
		st.Submit(xrp.Transaction{Type: xrp.TxAccountSet, Account: chain.Pick(rng, s.retail)})
	}
	for i := 0; i < signers; i++ {
		st.Submit(xrp.Transaction{Type: xrp.TxSignerListSet, Account: chain.Pick(rng, s.retail), DestinationTag: 2})
	}
	for i := 0; i < regKeys; i++ {
		r := chain.Pick(rng, s.retail)
		st.Submit(xrp.Transaction{Type: xrp.TxSetRegularKey, Account: r, Destination: chain.Pick(rng, s.retail)})
	}
	for i := 0; i < escrows; i++ {
		r := chain.Pick(rng, s.retail)
		st.Submit(xrp.Transaction{
			Type: xrp.TxEscrowCreate, Account: r, Destination: chain.Pick(rng, s.retail),
			Amount: xrp.XRP(int64(rng.Intn(100) + 25)), FinishAfter: st.Now().Add(24 * time.Hour),
		})
	}
}

// injectFailures produces the dataset's characteristic failures: PATH_DRY
// payments of untrusted IOUs and unfunded offers.
func (s *XRPScenario) injectFailures(rng *chain.RNG, pathDry, unfunded int) {
	st := s.State
	for i := 0; i < pathDry; i++ {
		from := chain.Pick(rng, s.retail)
		// Receiver without a USD line from this issuer: guaranteed dry.
		to := chain.Pick(rng, s.SpamCluster)
		st.Submit(xrp.Transaction{
			Type: xrp.TxPayment, Account: from, Destination: to,
			Amount: xrp.IOU("USD", s.Bitstamp, int64(rng.Intn(100)+1)),
		})
	}
	for i := 0; i < unfunded; i++ {
		from := chain.Pick(rng, s.retail)
		// Selling Bitstamp BTC they do not hold.
		st.Submit(xrp.Transaction{
			Type: xrp.TxOfferCreate, Account: from,
			TakerGets: xrp.IOU("BTC", s.Bitstamp, int64(rng.Intn(10)+1)),
			TakerPays: xrp.XRP(int64(rng.Intn(10_000) + 100)),
		})
	}
}

// injectRateTrades generates the December BTC/XRP trades behind Figure 11a:
// each issuer's BTC trading near its published rate.
func (s *XRPScenario) injectRateTrades(rng *chain.RNG, now time.Time, n int) {
	if now.Month() != time.December {
		return
	}
	st := s.State
	rates := []struct {
		issuer xrp.Address
		rate   int64
	}{
		{s.Bitstamp, 36_050},
		{s.GatehubFifth, 35_817},
		{s.BTC2Ripple, 409},
		{s.NoName, 1},
	}
	for i := 0; i < n; i++ {
		r := rates[rng.Intn(len(rates))]
		// Maker sells 1 BTC at the rate; a funded taker crosses it.
		st.Submit(xrp.Transaction{
			Type: xrp.TxOfferCreate, Account: s.MakerBot,
			TakerGets: xrp.IOU("BTC", r.issuer, 1),
			TakerPays: xrp.XRP(r.rate),
		})
		st.Submit(xrp.Transaction{
			Type: xrp.TxOfferCreate, Account: s.MyroneBuyer,
			TakerGets: xrp.XRP(r.rate + 1),
			TakerPays: xrp.IOU("BTC", r.issuer, 1),
		})
	}
}

// myroneEvents replays §4.3's manipulation: the huge BTC IOU payment, a
// self-trade at 30,500 XRP in mid-December, and the collapse trades near
// the window's end. Events fire on the first ledger at or after their
// calendar date, so coarse scales cannot skip them.
func (s *XRPScenario) myroneEvents(now time.Time) {
	st := s.State
	after := func(month time.Month, day int) bool {
		return !now.Before(time.Date(2019, month, day, 0, 0, 0, 0, time.UTC))
	}
	if after(time.December, 13) && s.flagOnce("myrone-pay") {
		// The 360,222 BTC IOU transfer, scaled by 1/S like every other
		// volume so its XRP-denominated share of Figure 12 stays at the
		// paper's ~25 % of the XRP band.
		amount := 360_222 / s.Opts.Scale
		if amount < 10 {
			amount = 10
		}
		st.Submit(xrp.Transaction{
			Type: xrp.TxPayment, Account: s.MyroneIssuer, Destination: s.MyroneBuyer,
			Amount: xrp.IOU("BTC", s.MyroneIssuer, amount),
		})
	}
	if after(time.December, 14) && s.flagOnce("myrone-30500") {
		s.myroneTrade(300, 30_500)
	}
	if after(time.December, 29) && s.flagOnce("myrone-1") {
		s.myroneTrade(10, 1)
	}
	if after(time.December, 30) && s.flagOnce("myrone-01") {
		s.myroneTrade(100, 0) // 0.1 XRP per BTC: sub-unit rate
	}
}

// myroneTrade executes btc IOUs against XRP at rate (XRP per BTC); rate 0
// means 0.1 XRP. The issuer sells its own IOU (always fundable) and the
// well-funded buyer account crosses it — both controlled by the same
// person, with the price set wherever they like (§4.3).
func (s *XRPScenario) myroneTrade(btc, rate int64) {
	st := s.State
	pays := btc * rate
	if rate == 0 {
		pays = btc / 10
	}
	st.Submit(xrp.Transaction{
		Type: xrp.TxOfferCreate, Account: s.MyroneIssuer,
		TakerGets: xrp.IOU("BTC", s.MyroneIssuer, btc),
		TakerPays: xrp.XRP(pays),
	})
	st.Submit(xrp.Transaction{
		Type: xrp.TxOfferCreate, Account: s.MyroneBuyer,
		TakerGets: xrp.XRP(pays + 1),
		TakerPays: xrp.IOU("BTC", s.MyroneIssuer, btc),
	})
}

func (s *XRPScenario) flagOnce(key string) bool {
	if s.flags[key] {
		return false
	}
	s.flags[key] = true
	return true
}
