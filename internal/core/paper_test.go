package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

// prefixDirectory is a stand-in explorer: every account was activated by
// the account named "p" plus its first two bytes, an hour per byte of its
// name after the window opens, and clusters under that parent.
type prefixDirectory struct{}

func (d prefixDirectory) ClusterName(addr string) string {
	parent, _ := d.Activation(addr)
	return parent + " -- descendant"
}

func (prefixDirectory) Activation(addr string) (string, time.Time) {
	return "p" + addr[:min(2, len(addr))], chain.ObservationStart.Add(time.Duration(len(addr)) * time.Hour)
}

// paperWithDirectory is st's Paper as the simulator report builds it: at a
// scale, with an explorer directory.
func paperWithDirectory(st ShardState) Paper {
	p := Paper{Scale: map[string]int64{"eos": 3, "tezos": 5, "xrp": 7}, Dir: prefixDirectory{}}
	switch s := st.(type) {
	case *EOSShard:
		p.EOS = s
	case *TezosShard:
		p.Tezos = s
	case *XRPShard:
		p.XRP = s
	}
	return p
}

// TestPaperRendersEmptyAndOneBlockStates: every section renders an empty
// state, a one-block state and a state whose counts disagree with its
// totals (what a hostile blob can decode to) without a panic, a NaN or an
// infinity — with and without a directory.
func TestPaperRendersEmptyAndOneBlockStates(t *testing.T) {
	oneBlock := map[string][]any{
		"eos": asBatch(genEOSBlocks(1)), "tezos": asBatch(genTezosBlocks(1)), "xrp": asBatch(genXRPLedgers(1)),
	}
	check := func(name, text string) {
		t.Helper()
		if strings.Contains(text, "NaN") || strings.Contains(text, "Inf") {
			t.Errorf("%s renders a non-finite number:\n%s", name, text)
		}
	}
	var empties []ShardState
	for _, chainName := range []string{"eos", "tezos", "xrp"} {
		empty, err := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		empties = append(empties, empty)
		one, _ := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
		if err := one.IngestBatch(oneBlock[chainName]); err != nil {
			t.Fatal(err)
		}
		for _, st := range []ShardState{empty, one} {
			name := chainName
			if st == one {
				name += " one block"
			}
			check(name, Figures(st))
			check(name+" with directory", paperWithDirectory(st).render())
		}
	}
	all := Figures(empties...)
	check("all empty", all)
	if !strings.Contains(all, "boomerang transactions: 0 (0.0% of txs)") {
		t.Errorf("empty EOS boomerang share:\n%s", all)
	}

	eos := newShard[*EOSShard]()
	eos.ActionsByName["transfer"] = 3
	eos.ReceivedByContract["eosio.token"] = map[string]int64{"transfer": 0}
	eos.SentPairs["alice"] = map[string]int64{"bob": 0}
	eos.boomerangs = 2
	tez := newShard[*TezosShard]()
	tez.OpsByKind["transaction"] = 1
	tez.sentTo["tz1a"] = map[string]int64{}
	tez.sentTo["tz1b"] = map[string]int64{"tz1c": 0, "tz1d": 0}
	xr := newShard[*XRPShard]()
	xr.TxByType["Payment"] = 2
	xr.payments = []xrpPayment{{From: "rA", To: "rB", Currency: "XRP"}}
	xr.byAccount["rA"] = &xrpAccountAgg{DestTags: map[uint32]int64{}}
	for _, st := range []ShardState{eos, tez, xr} {
		check(st.Chain()+" inconsistent", Figures(st))
		check(st.Chain()+" inconsistent with directory", paperWithDirectory(st).render())
	}
}

// TestFiguresSaysWhatIsUnrated: an XRP state without exchange records — a
// fleet run's — says so in one line wherever a number needs an IOU rate,
// and prints no such line once the records are there.
func TestFiguresSaysWhatIsUnrated(t *testing.T) {
	x := newShard[*XRPShard]()
	if err := x.IngestBatch(asBatch(genXRPLedgers(16))); err != nil {
		t.Fatal(err)
	}
	out := Figures(x)
	for _, want := range []string{"payment value", "IOU flows: "} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if n := strings.Count(out, unrated); n != 3 {
		t.Errorf("%d unrated lines, want 3 (Figures 7, 11a and 12):\n%s", n, out)
	}
	if strings.Contains(out, "payments with value") || strings.Contains(out, "economic share") {
		t.Errorf("rate-less value split printed as if measured:\n%s", out)
	}
	// The summary comes first, and a blank line separates it from the
	// sections.
	if summary := x.Summary().Render(); !strings.HasPrefix(out, summary+"\nFigure 1 ") {
		t.Errorf("figures do not open with the summary and a blank line:\n%s", out)
	}

	x.AddExchanges(genExchanges(4))
	if out := Figures(x); strings.Contains(out, unrated) {
		t.Errorf("rated state still says unmeasured:\n%s", out)
	}
}

// TestXRPFiguresIndependentOfMergeOrder: exchange records and payments
// append in merge order, so every rate and volume reduces them in canonical
// order. A's fills price BTC at 0.1 and 0.1 XRP, B's at 0.1 and 0.3: summed
// as A∘B appends them the mean is 0.15000000000000002, as B∘A does 0.15.
func TestXRPFiguresIndependentOfMergeOrder(t *testing.T) {
	btc := XRPAssetKey{Currency: "BTC", Issuer: "rGW"}
	fill := func(i int, xrpPerTenBTC int64) XRPExchange {
		return XRPExchange{
			Time: chain.ObservationStart.Add(time.Duration(i) * time.Hour),
			Base: btc, Counter: xrpNative,
			BaseValue: 10 * xrpDropsPerXRP, CounterValue: xrpPerTenBTC * xrpDropsPerXRP,
			Maker: "rMaker", MakerSequence: uint32(i),
		}
	}
	build := func() (a, b *XRPShard) {
		a, b = newShard[*XRPShard](), newShard[*XRPShard]()
		if err := a.IngestBatch([]any{xrpLedger(1, chain.ObservationStart,
			payment("rA", "rB", xrpAmt("BTC", "rGW", 3), "tesSUCCESS"),
			payment("rA", "rC", xrpAmt("XRP", "", 7), "tesSUCCESS"),
		)}); err != nil {
			t.Fatal(err)
		}
		if err := b.IngestBatch([]any{xrpLedger(2, chain.ObservationStart.Add(time.Hour),
			payment("rB", "rC", xrpAmt("BTC", "rGW", 11), "tesSUCCESS"),
			payment("rC", "rA", xrpAmt("BTC", "rGW", 5), "tesSUCCESS"),
		)}); err != nil {
			t.Fatal(err)
		}
		a.AddExchanges([]XRPExchange{fill(1, 1), fill(2, 1)})
		b.AddExchanges([]XRPExchange{fill(3, 1), fill(4, 3)})
		return a, b
	}
	mergeAll := func(srcs ...*XRPShard) *XRPShard {
		m := newShard[*XRPShard]()
		for _, src := range srcs {
			if err := m.Merge(src); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	a, b := build()
	ab := mergeAll(a, b)
	a, b = build()
	ba := mergeAll(b, a)

	if x, y := ab.IssuerRates("BTC"), ba.IssuerRates("BTC"); len(x) != 1 || x[0] != y[0] {
		t.Errorf("issuer rates by merge order: A∘B %+v, B∘A %+v", x, y)
	}
	x, y := ab.ValueFlow(nil, 8), ba.ValueFlow(nil, 8)
	if x.TotalXRPVolume != y.TotalXRPVolume || len(x.Senders) != len(y.Senders) {
		t.Fatalf("value flow by merge order: A∘B %+v, B∘A %+v", x, y)
	}
	for i := range x.Senders {
		if x.Senders[i] != y.Senders[i] || x.Receivers[i] != y.Receivers[i] {
			t.Errorf("flow edge %d by merge order: A∘B %+v / %+v, B∘A %+v / %+v",
				i, x.Senders[i], x.Receivers[i], y.Senders[i], y.Receivers[i])
		}
	}
	if got, want := Figures(ba), Figures(ab); got != want {
		t.Errorf("figures by merge order:\n--- A∘B ---\n%s\n--- B∘A ---\n%s", want, got)
	}
}

// foldEOS folds each block, in order, into a fresh EOS state.
func foldEOS(t *testing.T, blocks ...*wire.EOSBlock) *EOSShard {
	t.Helper()
	s := newShard[*EOSShard]()
	for _, b := range blocks {
		if err := s.IngestBatch([]any{b}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// mergeEOS folds x and y into states of their own and merges y's into x's.
func mergeEOS(t *testing.T, x, y *wire.EOSBlock) *EOSShard {
	t.Helper()
	m := foldEOS(t, x)
	if err := m.Merge(foldEOS(t, y)); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEOSVolumeLineIndependentOfFoldOrder: the §4.1 volume line prints an
// integer sum, so the same transfers folded as A∘B or B∘A — in one state,
// or in two merged either way — print the same section. A moves 900
// trillion EOS and B forty legs of 0.1 EOS: summed as floats, A∘B rounds
// every leg to the 0.125 EOS a float holds at that size and prints
// 900000000000005 EOS, while B∘A prints the exact 900000000000004.
func TestEOSVolumeLineIndependentOfFoldOrder(t *testing.T) {
	ts := chain.ObservationStart
	a := eosBlock(1, ts, []wire.EOSActionJSON{transfer("eosio.token", "whale", "bob", "900000000000000.0000 EOS")})
	var legs [][]wire.EOSActionJSON
	for i := 0; i < 40; i++ {
		legs = append(legs, []wire.EOSActionJSON{transfer("eosio.token", "alice", "eidosonecoin", "0.1000 EOS")})
	}
	b := eosBlock(2, ts.Add(time.Hour), legs...)

	section := func(s *EOSShard) string { return Paper{EOS: s}.CaseStudies() }
	want := section(foldEOS(t, a, b))
	if !strings.Contains(want, "  EOS financial volume: 900000000000004 EOS moved, 0.0% of it boomerang legs") {
		t.Fatalf("A∘B section lacks the exact volume line:\n%s", want)
	}
	for name, s := range map[string]*EOSShard{
		"B∘A": foldEOS(t, b, a), "A merges B": mergeEOS(t, a, b), "B merges A": mergeEOS(t, b, a),
	} {
		if got := section(s); got != want {
			t.Errorf("%s:\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestEOSVolumeOverflowRefused: an EOS volume that would pass int64 is not
// wrapped. Folded in one state, merged from two in either order, or carried
// through a shard blob, §4.1 names the refusal instead of a number; a volume
// of exactly MaxInt64 units still prints.
func TestEOSVolumeOverflowRefused(t *testing.T) {
	ts := chain.ObservationStart
	most := eosBlock(1, ts, []wire.EOSActionJSON{transfer("eosio.token", "whale", "bob", "922337203685477.5807 EOS")})
	one := eosBlock(2, ts.Add(time.Hour), []wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "0.0001 EOS")})

	if got := (Paper{EOS: foldEOS(t, most)}).CaseStudies(); !strings.Contains(got, "EOS financial volume: 922337203685478 EOS moved") {
		t.Fatalf("a volume of MaxInt64 units does not print:\n%s", got)
	}
	const refusal = "  EOS financial volume: refused, the sum of transfers passes int64 in 10⁻⁴ EOS\n"
	over := foldEOS(t, most, one)
	dec, err := DecodeShard(encodeState(t, over))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*EOSShard{
		"folded": over, "most merges one": mergeEOS(t, most, one), "one merges most": mergeEOS(t, one, most),
		"decoded": dec.(*EOSShard),
	} {
		if got := (Paper{EOS: s}).CaseStudies(); !strings.HasSuffix(got, refusal) {
			t.Errorf("%s: volume %d, section\n%s\nwant it to end in the refusal", name, s.volume, got)
		}
	}
	// A refused volume stays refused through any later merge.
	more := mergeEOS(t, most, one)
	if err := more.Merge(foldEOS(t, eosBlock(3, ts.Add(2*time.Hour),
		[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "1.0000 EOS")}))); err != nil {
		t.Fatal(err)
	}
	if more.volume != volumeOverflow {
		t.Errorf("a merge after the refusal left volume %d", more.volume)
	}
}
