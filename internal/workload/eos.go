package workload

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/chain"
	"repro/internal/eos"
)

// EOSOptions parameterizes the EOS scenario.
type EOSOptions struct {
	// Scale is the time-dilation divisor S (default 20,000 — about 795
	// blocks and ~150k actions for the full window).
	Scale int64
	Seed  int64
	// Start and End bound the simulated window (defaults: the paper's
	// observation window).
	Start, End time.Time
}

const (
	// eosMiners is the number of distinct EIDOS mining accounts.
	eosMiners = 40
	// eosGamersWithoutStake is the number of casual accounts that keep
	// playing without staking CPU — the users §4.1 describes being locked
	// out once the network congests.
	eosGamersWithoutStake = 10
)

// EOSScenario is the built scenario with handles the benchmarks need.
type EOSScenario struct {
	Chain *eos.Chain
	Opts  EOSOptions
	// BlocksPerDay at the chosen scale.
	BlocksPerDay float64
	// EIDOS is the installed airdrop contract.
	EIDOS *eos.EIDOSContractImpl
}

// Full-scale EOS calendar: 172,800 blocks per day (0.5 s interval).
const eosFullBlocksPerDay = 172_800

// eosDailyRates are full-scale actions per day, derived from the paper's
// Figures 1, 4 and 5 over the 92-day window.
var eosDailyRates = struct {
	tokenTransfers float64 // ordinary eosio.token transfers
	porn           float64 // pornhashbaby
	betdice        float64 // betdicegroup ecosystem
	whaleex        float64 // whaleextrust DEX
	sanguo         float64 // eossanguoone RPG
	mykey          float64 // mykeypostman relayer
	bluebet        float64 // bluebet cluster
	system         map[string]float64
	miningTxs      float64 // EIDOS mining transactions/day after Nov 1
}{
	tokenTransfers: 1_428_000, // 131.4M / 92
	porn:           267_000,   // 24.55M / 92
	betdice:        382_000,   // 35.15M / 92
	whaleex:        98_000,    // 9.05M / 92
	sanguo:         94_500,    // 8.70M / 92
	mykey:          128_000,   // 11.78M / 92
	bluebet:        190_000,   // bluebet* cluster aggregate
	system: map[string]float64{
		"bidname":      2_652, // 243,942 / 92
		"deposit":      2_166,
		"newaccount":   1_247,
		"updateauth":   664,
		"linkauth":     646,
		"delegatebw":   3_961,
		"buyrambytes":  1_772,
		"undelegatebw": 1_700,
		"rentcpu":      1_679,
		"voteproducer": 716,
		"buyram":       6_521,
	},
	miningTxs: 1_400_000, // each carrying minesPerTx boomerangs
}

// minesPerTx is how many mining transfers EIDOS bots batched per
// transaction (each one triggering two inline legs).
const minesPerTx = 8

// BuildEOS constructs the chain, contracts and funded actor accounts.
func BuildEOS(opts EOSOptions) (*EOSScenario, error) {
	if opts.Scale < 1 {
		opts.Scale = 20_000
	}
	if opts.Seed == 0 {
		opts.Seed = 11
	}
	if opts.Start.IsZero() {
		opts.Start = chain.ObservationStart
	}
	if opts.End.IsZero() {
		opts.End = chain.ObservationEnd
	}

	cfg := eos.DefaultConfig(opts.Scale)
	cfg.Start = opts.Start
	// Real transfers cost ~1 ms of CPU; with ~220 actions per block during
	// the EIDOS flood that exceeds the 200 ms block budget and flips the
	// network into congestion mode, exactly as in §4.1.
	cfg.CPUMicrosPerAction = 1000
	c := eos.New(cfg)
	s := &EOSScenario{
		Chain:        c,
		Opts:         opts,
		BlocksPerDay: float64(eosFullBlocksPerDay) / float64(opts.Scale),
	}

	// Application contracts from Figures 4/5.
	apps := []struct {
		account eos.Name
		actions []string
	}{
		{eos.PornSite, []string{"record", "login"}},
		{eos.BetDiceTasks, []string{"removetask", "log", "sendhouse", "betrecord", "betpayrecord"}},
		{eos.BetDiceGroup, []string{"dispatch", "payout"}},
		{eos.BetDiceAdmin, []string{"admin"}},
		{eos.BetDiceBacca, []string{"bet", "resolve"}},
		{eos.BetDiceSicbo, []string{"bet", "resolve"}},
		{eos.WhaleExTrust, []string{"verifytrade2", "clearing", "clearsettres", "verifyad", "cancelorder", "neworder"}},
		{eos.SanguoGame, []string{"reveal2", "combat", "deletemat", "sellmat", "makeitem", "quest"}},
		{eos.MyKeyLogic, []string{"forward", "keyaction"}},
		{eos.BlueBetProxy, []string{"proxybet", "relay"}},
		{eos.BlueBetTexas, []string{"holdem"}},
		{eos.BlueBetJacks, []string{"jacks"}},
		{eos.BlueBetBcrat, []string{"bacarrat", "settle"}},
	}
	for _, app := range apps {
		if err := c.SetContract(app.account, eos.NewAppContract(app.account, app.actions...)); err != nil {
			return nil, fmt.Errorf("workload: installing %s: %w", app.account, err)
		}
	}

	// Token contracts: EIDOS and LYNX.
	s.EIDOS = eos.NewEIDOSContract()
	if err := c.SetContract(eos.EIDOSContract, s.EIDOS); err != nil {
		return nil, err
	}
	if err := c.Tokens().Create(eos.EIDOSContract, eos.EIDOSToken, 4, 2_000_000_000_0000); err != nil {
		return nil, err
	}
	if err := c.Tokens().Issue(eos.EIDOSContract, eos.EIDOSContract, chain.NewAsset(100_000_000, 0, 4, eos.EIDOSToken)); err != nil {
		return nil, err
	}
	if err := c.SetContract(eos.LynxToken, &eos.TokenContract{Account: eos.LynxToken}); err != nil {
		return nil, err
	}
	if err := c.Tokens().Create(eos.LynxToken, "LYNX", 4, 1_000_000_000_0000); err != nil {
		return nil, err
	}

	// Actor accounts. Funding and stake come from the system account.
	fund := func(name string, eosRaw int64, stake int64) (eos.Name, error) {
		n, err := eos.ParseName(name)
		if err != nil {
			return 0, err
		}
		if !c.HasAccount(n) {
			if err := c.CreateAccount(n, eos.SystemAccount); err != nil {
				return 0, err
			}
		}
		if eosRaw > 0 {
			if err := c.Tokens().Transfer(eos.TokenAccount, eos.SystemAccount, n, chain.EOSAsset(eosRaw)); err != nil {
				return 0, err
			}
		}
		if stake > 0 {
			c.Resources().Stake(&c.GetAccount(n).Resources, stake, stake/4)
		}
		return n, nil
	}

	heavyStake := int64(1_000_000_0000) // 100k EOS staked: pro bots
	lightStake := int64(100_000_0000)   // 10k EOS: regular users

	seedAccounts := []struct {
		name  string
		funds int64
		stake int64
	}{
		{"mykeypostman", 50_000_000_0000, heavyStake},
		{"bluebet2user", 10_000_000_0000, heavyStake},
		{"whalebotaaaa", 1_000_000_0000, heavyStake},
		{"whalebotbbbb", 1_000_000_0000, heavyStake},
		{"whalebotcccc", 1_000_000_0000, heavyStake},
		{"whalebotdddd", 1_000_000_0000, heavyStake},
		{"whaleboteeee", 1_000_000_0000, heavyStake},
		{"honesttrader", 100_000_0000, lightStake},
		{"secondtrader", 100_000_0000, lightStake},
	}
	for _, sa := range seedAccounts {
		if _, err := fund(sa.name, sa.funds, sa.stake); err != nil {
			return nil, err
		}
	}
	// The app contracts themselves both send and hold tokens.
	for _, appAcct := range []eos.Name{eos.BetDiceGroup, eos.BlueBetProxy, eos.BlueBetBcrat, eos.PornSite} {
		if err := c.Tokens().Transfer(eos.TokenAccount, eos.SystemAccount, appAcct, chain.EOSAsset(10_000_000_0000)); err != nil {
			return nil, err
		}
		c.Resources().Stake(&c.GetAccount(appAcct).Resources, heavyStake, heavyStake/4)
	}
	// Issue LYNX to the bluebet user who pays the token contract.
	if err := c.Tokens().Issue(eos.LynxToken, eos.MustName("bluebet2user"), chain.NewAsset(500_000_000, 0, 4, "LYNX")); err != nil {
		return nil, err
	}

	// Ordinary token holders.
	for i := 0; i < 50; i++ {
		if _, err := fund(userName("usr", i), 100_000_0000, lightStake); err != nil {
			return nil, err
		}
	}
	// EIDOS miners: heavily staked (they rented and staked CPU — the
	// paper's price-spike mechanism).
	for i := 0; i < eosMiners; i++ {
		if _, err := fund(userName("mine", i), 10_000_0000, heavyStake); err != nil {
			return nil, err
		}
	}
	// Unstaked casual gamers, to be locked out during congestion.
	for i := 0; i < eosGamersWithoutStake; i++ {
		if _, err := fund(userName("csl", i), 1_000_0000, 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// userName derives a valid 12-char EOS name from a prefix and index.
func userName(prefix string, i int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz12345"
	suffix := make([]byte, 0, 8)
	for n := i; ; n /= len(alphabet) {
		suffix = append(suffix, alphabet[n%len(alphabet)])
		if n < len(alphabet) {
			break
		}
	}
	name := prefix + string(suffix)
	for len(name) < 9 {
		name += "a"
	}
	return name
}

// Run simulates the full window, producing every block and injecting actor
// traffic. It returns the number of blocks produced.
func (s *EOSScenario) Run() int {
	c := s.Chain
	rng := chain.NewRNG(s.Opts.Seed)
	em := s.emitters()

	blocks := 0
	for c.Now().Before(s.Opts.End) {
		s.injectBlockTraffic(rng, em)
		c.ProduceBlock()
		blocks++
	}
	return blocks
}

type eosEmitters struct {
	transfers, porn, betdice, whaleex, sanguo, mykey, bluebet Emitter
	system                                                    []systemEmitter
	mining                                                    Emitter
	casual                                                    Emitter
}

func (s *EOSScenario) emitters() *eosEmitters {
	bpd := float64(eosFullBlocksPerDay)
	em := &eosEmitters{
		transfers: Emitter{Rate: PerBlock(eosDailyRates.tokenTransfers, bpd)},
		porn:      Emitter{Rate: PerBlock(eosDailyRates.porn, bpd)},
		betdice:   Emitter{Rate: PerBlock(eosDailyRates.betdice, bpd)},
		whaleex:   Emitter{Rate: PerBlock(eosDailyRates.whaleex, bpd)},
		sanguo:    Emitter{Rate: PerBlock(eosDailyRates.sanguo, bpd)},
		mykey:     Emitter{Rate: PerBlock(eosDailyRates.mykey, bpd)},
		bluebet:   Emitter{Rate: PerBlock(eosDailyRates.bluebet, bpd)},
		mining:    Emitter{Rate: PerBlock(eosDailyRates.miningTxs, bpd)},
		casual:    Emitter{Rate: PerBlock(20_000, bpd)},
	}
	// Name order, not map order: each system action draws from the RNG, so
	// the order they are emitted in fixes every later block.
	for _, name := range slices.Sorted(maps.Keys(eosDailyRates.system)) {
		em.system = append(em.system, systemEmitter{name, Emitter{Rate: PerBlock(eosDailyRates.system[name], bpd)}})
	}
	return em
}

// systemEmitter paces one system action at its Figure 1 daily rate.
type systemEmitter struct {
	name string
	Emitter
}

// injectBlockTraffic queues one block's worth of transactions.
func (s *EOSScenario) injectBlockTraffic(rng *chain.RNG, em *eosEmitters) {
	c := s.Chain
	now := c.Now()
	mining := now.After(chain.EIDOSLaunch) || now.Equal(chain.EIDOSLaunch)

	// Ordinary token transfers between random users.
	for i, n := 0, em.transfers.Next(); i < n; i++ {
		from := userName("usr", rng.Intn(50))
		to := userName("usr", rng.Intn(50))
		if from == to {
			continue
		}
		c.PushTransaction(eos.NewAction(eos.TokenAccount, eos.ActTransfer, eos.MustName(from), map[string]string{
			"from": from, "to": to,
			"quantity": chain.EOSAsset(int64(rng.Intn(50_0000)) + 1).String(),
		}))
	}

	// Porn site bookkeeping: 99.86% record, 0.14% login.
	for i, n := 0, em.porn.Next(); i < n; i++ {
		action := "record"
		if rng.Bool(0.0014) {
			action = "login"
		}
		actor := userName("usr", rng.Intn(50))
		c.PushTransaction(eos.NewAction(eos.PornSite, eos.MustName(action), eos.MustName(actor), nil))
	}

	// BetDice: betdicegroup fans out to its satellites per Figure 5, and
	// the betdicetasks action mix follows Figure 4.
	for i, n := 0, em.betdice.Next(); i < n; i++ {
		roll := rng.Float64()
		switch {
		case roll < 0.689: // betdicetasks, action mix from Figure 4
			action := "removetask"
			ar := rng.Float64()
			switch {
			case ar < 0.1186:
				action = "log"
			case ar < 0.1886:
				action = "sendhouse"
			case ar < 0.2278:
				action = "betrecord"
			case ar < 0.2666:
				action = "betpayrecord"
			}
			c.PushTransaction(eos.NewAction(eos.BetDiceTasks, eos.MustName(action), eos.BetDiceGroup, nil))
		case roll < 0.689+0.1355:
			c.PushTransaction(eos.NewAction(eos.BetDiceGroup, eos.MustName("dispatch"), eos.BetDiceGroup, nil))
		case roll < 0.689+0.1355+0.0515:
			c.PushTransaction(eos.NewAction(eos.BetDiceBacca, eos.MustName("bet"), eos.BetDiceGroup, nil))
		case roll < 0.689+0.1355+0.0515+0.0503:
			c.PushTransaction(eos.NewAction(eos.BetDiceSicbo, eos.MustName("bet"), eos.BetDiceGroup, nil))
		default:
			c.PushTransaction(eos.NewAction(eos.BetDiceAdmin, eos.MustName("admin"), eos.BetDiceGroup, nil))
		}
	}

	// WhaleEx: action mix from Figure 4; verifytrade2 carries buyer/seller
	// and the top five bots wash-trade against themselves ~88 % of the
	// time (§4.1).
	washBots := []string{"whalebotaaaa", "whalebotbbbb", "whalebotcccc", "whalebotdddd", "whaleboteeee"}
	for i, n := 0, em.whaleex.Next(); i < n; i++ {
		ar := rng.Float64()
		switch {
		case ar < 0.2979:
			var buyer, seller string
			if rng.Bool(0.82) { // wash bots dominate trade flow (§4.1: >70 %)
				bot := chain.Pick(rng, washBots)
				buyer = bot
				if rng.Bool(0.9) { // each bot self-trades >85 % of the time
					seller = bot
				} else {
					seller = chain.Pick(rng, washBots)
				}
			} else {
				// Honest flow spreads across the retail population so no
				// single honest account rivals the bots.
				buyer = userName("usr", rng.Intn(50))
				seller = userName("usr", rng.Intn(50))
			}
			cur := chain.Pick(rng, []string{"USDT", "EOS", "WAL", "TPT"})
			qty := fmt.Sprintf("%d.0000 %s", rng.Intn(500)+1, cur)
			c.PushTransaction(eos.NewAction(eos.WhaleExTrust, eos.MustName("verifytrade2"), eos.MustName(buyer), map[string]string{
				"buyer": buyer, "seller": seller, "quantity": qty,
			}))
		case ar < 0.2979+0.1774:
			c.PushTransaction(eos.NewAction(eos.WhaleExTrust, eos.MustName("clearing"), eos.MustName("whalebotaaaa"), nil))
		case ar < 0.2979+0.1774+0.1433:
			c.PushTransaction(eos.NewAction(eos.WhaleExTrust, eos.MustName("clearsettres"), eos.MustName("whalebotaaaa"), nil))
		case ar < 0.2979+0.1774+0.1433+0.1389:
			c.PushTransaction(eos.NewAction(eos.WhaleExTrust, eos.MustName("verifyad"), eos.MustName("whalebotbbbb"), nil))
		case ar < 0.2979+0.1774+0.1433+0.1389+0.0223:
			c.PushTransaction(eos.NewAction(eos.WhaleExTrust, eos.MustName("cancelorder"), eos.MustName("honesttrader"), nil))
		default:
			c.PushTransaction(eos.NewAction(eos.WhaleExTrust, eos.MustName("neworder"), eos.MustName("honesttrader"), nil))
		}
	}

	// Sanguo RPG: action mix from Figure 4.
	for i, n := 0, em.sanguo.Next(); i < n; i++ {
		ar := rng.Float64()
		action := "quest"
		switch {
		case ar < 0.2827:
			action = "reveal2"
		case ar < 0.2827+0.1593:
			action = "combat"
		case ar < 0.2827+0.1593+0.1012:
			action = "deletemat"
		case ar < 0.2827+0.1593+0.1012+0.0597:
			action = "sellmat"
		case ar < 0.2827+0.1593+0.1012+0.0597+0.0282:
			action = "makeitem"
		}
		actor := userName("usr", rng.Intn(50))
		c.PushTransaction(eos.NewAction(eos.SanguoGame, eos.MustName(action), eos.MustName(actor), nil))
	}

	// MyKey relayer: 94 % transfers through eosio.token, 6 % logic calls.
	for i, n := 0, em.mykey.Next(); i < n; i++ {
		if rng.Bool(0.94) {
			to := userName("usr", rng.Intn(50))
			c.PushTransaction(eos.NewAction(eos.TokenAccount, eos.ActTransfer, eos.MyKeyPostman, map[string]string{
				"from": "mykeypostman", "to": to,
				"quantity": chain.EOSAsset(int64(rng.Intn(10_0000)) + 1).String(),
			}))
		} else {
			c.PushTransaction(eos.NewAction(eos.MyKeyLogic, eos.MustName("forward"), eos.MyKeyPostman, nil))
		}
	}

	// BlueBet cluster: proxy self-calls, LYNX token payments, settlements.
	for i, n := 0, em.bluebet.Next(); i < n; i++ {
		ar := rng.Float64()
		switch {
		case ar < 0.35:
			c.PushTransaction(eos.NewAction(eos.BlueBetProxy, eos.MustName("proxybet"), eos.BlueBetProxy, nil))
		case ar < 0.55:
			c.PushTransaction(eos.NewAction(eos.LynxToken, eos.ActTransfer, eos.MustName("bluebet2user"), map[string]string{
				"from": "bluebet2user", "to": "bluebetproxy",
				"quantity": fmt.Sprintf("%d.0000 LYNX", rng.Intn(100)+1),
			}))
		case ar < 0.75:
			c.PushTransaction(eos.NewAction(eos.BlueBetBcrat, eos.MustName("bacarrat"), eos.BlueBetBcrat, nil))
		case ar < 0.9:
			c.PushTransaction(eos.NewAction(eos.TokenAccount, eos.ActTransfer, eos.BlueBetProxy, map[string]string{
				"from": "bluebetproxy", "to": userName("usr", rng.Intn(50)),
				"quantity": chain.EOSAsset(int64(rng.Intn(5_0000)) + 1).String(),
			}))
		default:
			c.PushTransaction(eos.NewAction(eos.BlueBetTexas, eos.MustName("holdem"), eos.BlueBetProxy, nil))
		}
	}

	// System actions at their Figure 1 daily rates.
	for i := range em.system {
		se := &em.system[i]
		for j, n := 0, se.Next(); j < n; j++ {
			s.pushSystemAction(rng, se.name)
		}
	}

	// EIDOS mining after the launch: each transaction batches minesPerTx
	// tiny transfers, each boomeranged back with an EIDOS payout.
	if mining {
		for i, n := 0, em.mining.Next(); i < n; i++ {
			miner := userName("mine", rng.Intn(eosMiners))
			actions := make([]eos.Action, 0, minesPerTx)
			for j := 0; j < minesPerTx; j++ {
				actions = append(actions, eos.NewAction(eos.TokenAccount, eos.ActTransfer, eos.MustName(miner), map[string]string{
					"from": miner, "to": eos.EIDOSContract.String(),
					"quantity": "0.0001 EOS",
				}))
			}
			c.PushTransaction(actions...)
		}
	}

	// Casual unstaked gamers keep trying to play; once the network
	// congests these are the transactions that start failing.
	for i, n := 0, em.casual.Next(); i < n; i++ {
		gamer := userName("csl", rng.Intn(eosGamersWithoutStake))
		c.PushTransaction(eos.NewAction(eos.BetDiceBacca, eos.MustName("bet"), eos.MustName(gamer), nil))
	}
}

func (s *EOSScenario) pushSystemAction(rng *chain.RNG, name string) {
	c := s.Chain
	actor := userName("usr", rng.Intn(50))
	switch name {
	case "newaccount":
		fresh := userName("new", rng.Intn(1_000_000))
		if c.HasAccount(eos.MustName(fresh)) {
			return
		}
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActNewAccount, eos.MustName(actor), map[string]string{
			"name": fresh,
		}))
	case "bidname":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActBidName, eos.MustName(actor), map[string]string{
			"newname": userName("bid", rng.Intn(100)), "bid": chain.EOSAsset(int64(rng.Intn(100_0000)) + 1_0000).String(),
		}))
	case "deposit":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActDeposit, eos.MustName(actor), map[string]string{
			"quantity": chain.EOSAsset(int64(rng.Intn(10_0000)) + 1).String(),
		}))
	case "updateauth":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActUpdateAuth, eos.MustName(actor), nil))
	case "linkauth":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActLinkAuth, eos.MustName(actor), nil))
	case "delegatebw":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActDelegateBW, eos.MustName(actor), map[string]string{
			"receiver":           actor,
			"stake_cpu_quantity": "1.0000 EOS",
			"stake_net_quantity": "0.5000 EOS",
		}))
	case "undelegatebw":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActUndelegateBW, eos.MustName(actor), map[string]string{
			"receiver":           actor,
			"stake_cpu_quantity": "0.5000 EOS",
			"stake_net_quantity": "0.2500 EOS",
		}))
	case "buyram":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActBuyRAM, eos.MustName(actor), map[string]string{
			"receiver": actor, "quant": "1.0000 EOS",
		}))
	case "buyrambytes":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActBuyRAMBytes, eos.MustName(actor), map[string]string{
			"receiver": actor, "bytes": "8192",
		}))
	case "rentcpu":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActRentCPU, eos.MustName(actor), map[string]string{
			"receiver": actor, "payment": "1.0000 EOS",
		}))
	case "voteproducer":
		c.PushTransaction(eos.NewAction(eos.SystemAccount, eos.ActVoteProducer, eos.MustName(actor), nil))
	}
}
