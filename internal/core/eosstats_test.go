package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

func eosAction(contract, name, actor string, data map[string]string) wire.EOSActionJSON {
	if data == nil {
		data = map[string]string{}
	}
	return wire.EOSActionJSON{
		Account: contract, Name: name,
		Authorization: []map[string]string{{"actor": actor, "permission": "active"}},
		Data:          data,
	}
}

// eosBlock builds the block in its full wire shape and returns what a
// decode would leave of it.
func eosBlock(num int, ts time.Time, txs ...[]wire.EOSActionJSON) *wire.EOSBlock {
	b := &wire.EOSBlockJSON{
		BlockNum:  uint32(num),
		Timestamp: ts.Format("2006-01-02T15:04:05.000"),
		Producer:  "prodablock",
	}
	for i, actions := range txs {
		var t wire.EOSTrxJSON
		t.Status = "executed"
		t.Trx.ID = fmt.Sprintf("tx-%d-%d", num, i)
		t.Trx.Transaction.Actions = actions
		b.Transactions = append(b.Transactions, t)
	}
	out := new(wire.EOSBlock)
	wire.ProjectEOSBlock(b, out)
	return out
}

func transfer(contract, from, to, qty string) wire.EOSActionJSON {
	return eosAction(contract, "transfer", from, map[string]string{
		"from": from, "to": to, "quantity": qty,
	})
}

func TestEOSAggregatorFigure1Classification(t *testing.T) {
	a := newShard[*EOSShard]()
	ts := chain.ObservationStart.Add(time.Hour)
	err := a.IngestBatch([]any{eosBlock(1, ts,
		[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "1.0000 EOS")},
		[]wire.EOSActionJSON{eosAction("eosio", "newaccount", "alice", map[string]string{"name": "carol"})},
		[]wire.EOSActionJSON{eosAction("eosio", "delegatebw", "alice", nil)},
		[]wire.EOSActionJSON{eosAction("betdicetasks", "removetask", "betdicegroup", nil)},
	)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Blocks != 1 || a.Transactions != 4 || a.Actions != 4 {
		t.Fatalf("counts: %d blocks %d txs %d actions", a.Blocks, a.Transactions, a.Actions)
	}
	// User-contract actions collapse into the "others" Figure 1 row.
	if a.ActionsByName["removetask"] != 0 || a.ActionsByName["others"] != 1 {
		t.Fatalf("figure1 rows: %+v", a.ActionsByName)
	}
	// Series labels by app category.
	if got := a.Series.Total("Betting"); got != 1 {
		t.Fatalf("Betting series = %d", got)
	}
}

func TestEOSAggregatorTopReceiversAndPairs(t *testing.T) {
	a := newShard[*EOSShard]()
	ts := chain.ObservationStart
	for i := 0; i < 10; i++ {
		a.IngestBatch([]any{eosBlock(i+1, ts.Add(time.Duration(i)*time.Minute),
			[]wire.EOSActionJSON{transfer("eosio.token", "mykeypostman", "bob", "1.0000 EOS")},
			[]wire.EOSActionJSON{eosAction("betdicetasks", "removetask", "betdicegroup", nil)},
		)})
	}
	a.IngestBatch([]any{eosBlock(11, ts.Add(time.Hour),
		[]wire.EOSActionJSON{eosAction("betdicetasks", "log", "betdicegroup", nil)},
	)})

	top := a.TopReceivers(2)
	if len(top) != 2 {
		t.Fatalf("top receivers: %d", len(top))
	}
	if top[0].Contract != "betdicetasks" || top[0].Total != 11 {
		t.Fatalf("top[0]: %+v", top[0])
	}
	if top[0].Actions[0].Name != "removetask" || top[0].Actions[0].Count != 10 {
		t.Fatalf("action breakdown: %+v", top[0].Actions)
	}

	pairs := a.TopSenderPairs(1, 5)
	if pairs[0].Sender != "betdicegroup" || pairs[0].Sent != 11 {
		t.Fatalf("top sender: %+v", pairs[0])
	}
	if pairs[0].Receivers[0].Receiver != "betdicetasks" {
		t.Fatalf("pair receiver: %+v", pairs[0].Receivers)
	}
}

func TestEOSBoomerangDetection(t *testing.T) {
	a := newShard[*EOSShard]()
	// EIDOS mining tx: miner→contract, contract→miner (same qty), EIDOS leg.
	a.IngestBatch([]any{eosBlock(1, chain.ObservationStart,
		[]wire.EOSActionJSON{
			transfer("eosio.token", "miner1", "eidosonecoin", "0.0001 EOS"),
			transfer("eosio.token", "eidosonecoin", "miner1", "0.0001 EOS"),
			transfer("eidosonecoin", "eidosonecoin", "miner1", "12.0000 EIDOS"),
		},
		// Ordinary transfer: not a boomerang.
		[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "5.0000 EOS")},
	)})
	if got := a.boomerangs; got != 1 {
		t.Fatalf("boomerangs = %d", got)
	}
	if share := a.EIDOSShare(); share < 0.7 || share > 0.8 {
		t.Fatalf("EIDOS share = %f (3 of 4 actions)", share)
	}
	if n := a.ActionsByName["transfer"]; n != a.Actions {
		t.Fatalf("transfers = %d of %d actions", n, a.Actions)
	}
}

func TestEOSWashTradeAnalysis(t *testing.T) {
	a := newShard[*EOSShard]()
	var actions [][]wire.EOSActionJSON
	// 90 self-trades by washbot1, 10 honest trades between others.
	for i := 0; i < 90; i++ {
		actions = append(actions, []wire.EOSActionJSON{
			eosAction("whaleextrust", "verifytrade2", "washbot1", map[string]string{
				"buyer": "washbot1", "seller": "washbot1", "quantity": "100.0000 USDT",
			}),
		})
	}
	for i := 0; i < 10; i++ {
		actions = append(actions, []wire.EOSActionJSON{
			eosAction("whaleextrust", "verifytrade2", "honestbuyer", map[string]string{
				"buyer": "honestbuyer", "seller": "honestsell1", "quantity": "3.0000 EOS",
			}),
		})
	}
	a.IngestBatch([]any{eosBlock(1, chain.ObservationStart, actions...)})

	rep := AnalyzeWashTrades(a.Trades, 5)
	if rep.TotalTrades != 100 {
		t.Fatalf("trades = %d", rep.TotalTrades)
	}
	if rep.SelfTradeShare != 0.9 {
		t.Fatalf("self-trade share = %f", rep.SelfTradeShare)
	}
	if rep.TopAccounts[0].Account != "washbot1" || rep.TopAccounts[0].SelfTradeShare != 1.0 {
		t.Fatalf("top washer: %+v", rep.TopAccounts[0])
	}
	if rep.Top5Share != 1.0 {
		t.Fatalf("top5 share = %f", rep.Top5Share)
	}
	// washbot1 bought and sold the same amounts: zero net change.
	var wb balanceChange
	for _, bc := range balanceChanges(a.Trades, rep.TopAccounts) {
		if bc.account == "washbot1" {
			wb = bc
		}
	}
	if wb.currencies != 1 || wb.unchanged != 1 {
		t.Fatalf("balance change: %+v", wb)
	}
}

func TestTPSEstimate(t *testing.T) {
	first := chain.ObservationStart
	last := first.Add(10 * time.Second)
	if got := ObservedTPS(100, first, last); got != 10 {
		t.Fatalf("observed = %f", got)
	}
	if got := EstimatedFullScaleTPS(100, first, last, 1000); got != 10_000 {
		t.Fatalf("full-scale = %f", got)
	}
	if ObservedTPS(5, last, first) != 0 {
		t.Fatal("inverted window should be 0")
	}
}

func TestEOSVolumeTracking(t *testing.T) {
	a := newShard[*EOSShard]()
	a.IngestBatch([]any{eosBlock(1, chain.ObservationStart,
		[]wire.EOSActionJSON{
			transfer("eosio.token", "miner1", "eidosonecoin", "2.0000 EOS"),
			transfer("eosio.token", "eidosonecoin", "miner1", "2.0000 EOS"),
			transfer("eidosonecoin", "eidosonecoin", "miner1", "10.0000 EIDOS"),
		},
		[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "5.5000 EOS")},
	)})
	// In 10⁻⁴ EOS: 9.5 EOS moved, 4 of them merely bounced off the
	// airdrop contract; the EIDOS leg is another token.
	if a.volume != 95_000 || a.boomerangVolume != 40_000 {
		t.Fatalf("EOS volume %d, boomerang volume %d; want 95000 and 40000", a.volume, a.boomerangVolume)
	}
}
