// Shard codec: the per-chain field schemas behind ShardState.EncodeTo and
// DecodeFrom, written against the bounds-checked primitives in
// internal/wire (ShardEnc/ShardDec) and sealed in the versioned,
// checksummed envelope (wire.SealShard). See DESIGN.md "distributed crawl
// & shard wire format" for the layout and compatibility rules.
//
// Encoding is deterministic: map keys sort before writing, floats transfer
// as IEEE 754 bits, times carry an explicit zero flag. A shard encoded on
// one machine therefore decodes on another into state whose Merge renders
// byte-identical figures to an in-process merge of the same blocks.
//
// Deliberately not serialized:
//   - EOS classification tables (TokenContracts, ContractLabels,
//     EIDOSContract): configuration, not aggregate state — the decoder's
//     own tables apply.
//   - XRP explorer exchange records beyond those ingested into the shard:
//     AddExchanges lands on the owning aggregator, which in a distributed
//     crawl is the coordinator's.

package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// stringish admits the string-keyed count maps the shards keep, including
// named string types like EOSCategory.
type stringish interface{ ~string }

// encCountMap writes a count map with sorted keys.
func encCountMap[K stringish](e *wire.ShardEnc, m map[K]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.Varint(m[K(k)])
	}
}

// decCountMap reads a count map written by encCountMap into m.
func decCountMap[K stringish](d *wire.ShardDec, m map[K]int64) {
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		v := d.Varint()
		if d.Err() == nil {
			m[K(k)] += v
		}
	}
}

// decNewCountMap reads a count map written by encCountMap into a map sized
// for it.
func decNewCountMap[K stringish](d *wire.ShardDec) map[K]int64 {
	n := d.Count()
	m := make(map[K]int64, capHint(d, n, 2))
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		v := d.Varint()
		if d.Err() == nil {
			m[K(k)] += v
		}
	}
	return m
}

// encNested writes a nested count map, both levels key-sorted.
func encNested(e *wire.ShardEnc, m map[string]map[string]int64) {
	outer := make([]string, 0, len(m))
	for k := range m {
		outer = append(outer, k)
	}
	sort.Strings(outer)
	e.Uvarint(uint64(len(outer)))
	for _, k := range outer {
		e.String(k)
		encCountMap(e, m[k])
	}
}

// decNested reads a nested count map written by encNested into m.
func decNested(d *wire.ShardDec, m map[string]map[string]int64) {
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		inner := m[k]
		if inner == nil {
			inner = make(map[string]int64)
			if d.Err() == nil {
				m[k] = inner
			}
		}
		decCountMap(d, inner)
	}
}

// encSeries writes a time series as its sorted populated cells; geometry
// (origin, width) travels in the common shard prefix, not here.
func encSeries(e *wire.ShardEnc, s *stats.TimeSeries) {
	entries := s.Entries()
	e.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.Uvarint(uint64(en.Bucket))
		e.String(en.Label)
		e.Varint(en.Count)
	}
}

// decSeries reads cells written by encSeries into s.
func decSeries(d *wire.ShardDec, s *stats.TimeSeries) {
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		bucket := d.Uvarint()
		label := d.String()
		count := d.Varint()
		if d.Err() == nil {
			s.AddBucket(int(bucket), label, count)
		}
	}
}

// encPrefix writes the common shard prefix every chain shares: window
// geometry, covered block range and observed time bounds.
func encPrefix(e *wire.ShardEnc, w Window, cov BlockRange, first, last time.Time) {
	e.Time(w.Origin)
	e.Varint(int64(w.Bucket))
	e.Varint(cov.From)
	e.Varint(cov.To)
	e.Time(first)
	e.Time(last)
}

// decPrefix reads the common prefix, validating the bucket width before
// the caller rebuilds its series with it (NewTimeSeries panics on a
// non-positive width; a corrupted blob must error instead).
func decPrefix(d *wire.ShardDec) (w Window, cov BlockRange, first, last time.Time, err error) {
	w.Origin = d.Time()
	w.Bucket = time.Duration(d.Varint())
	cov.From = d.Varint()
	cov.To = d.Varint()
	first = d.Time()
	last = d.Time()
	if err = d.Err(); err != nil {
		return
	}
	if w.Bucket <= 0 {
		err = fmt.Errorf("core: shard has non-positive bucket width %v", w.Bucket)
	}
	return
}

// sealTo seals a chain's encoded body under the fence token and writes the
// blob.
func sealTo(w io.Writer, chain string, fence uint64, body []byte) error {
	_, err := w.Write(wire.SealShard(chain, fence, body))
	return err
}

// openFrom reads a sealed blob, validates the envelope and the chain name,
// and returns a decoder over the body.
func openFrom(r io.Reader, wantChain string) (*wire.ShardDec, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading shard blob: %w", err)
	}
	chain, _, body, err := wire.OpenShard(blob)
	if err != nil {
		return nil, err
	}
	if chain != wantChain {
		return nil, fmt.Errorf("core: decoding %q shard into %s state", chain, wantChain)
	}
	return wire.NewShardDec(body), nil
}

// finishDecode is every chain's decode epilogue: surface the sticky error
// and refuse trailing bytes (a structurally valid prefix followed by junk
// is corruption, not a shorter shard).
func finishDecode(chain string, d *wire.ShardDec) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: decoding %s shard: %w", chain, err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("core: decoding %s shard: %d trailing bytes after last field", chain, n)
	}
	return nil
}

// EncodeTo writes the shard as a sealed blob (ShardState contract).
func (s *EOSShard) EncodeTo(w io.Writer, fence uint64) error {
	var e wire.ShardEnc
	encPrefix(&e, s.Window(), s.covered, s.FirstBlockTime, s.LastBlockTime)
	e.Varint(s.Blocks)
	e.Varint(s.Transactions)
	e.Varint(s.Actions)
	encCountMap(&e, s.ActionsByName)
	encCountMap(&e, s.ActionsByCategory)
	encSeries(&e, s.Series)
	encNested(&e, s.ReceivedByContract)
	encNested(&e, s.SentPairs)
	e.Uvarint(uint64(len(s.Trades)))
	for _, t := range s.Trades {
		e.String(t.Buyer)
		e.String(t.Seller)
		e.String(t.Currency)
		e.Float(t.Amount)
	}
	e.Varint(s.boomerangs)
	e.Varint(s.eidosActions)
	symbols := make([]string, 0, len(s.VolumeBySymbol))
	for sym := range s.VolumeBySymbol {
		symbols = append(symbols, sym)
	}
	sort.Strings(symbols)
	e.Uvarint(uint64(len(symbols)))
	for _, sym := range symbols {
		e.String(sym)
		e.Float(s.VolumeBySymbol[sym])
	}
	e.Float(s.BoomerangVolume)
	return sealTo(w, "eos", fence, e.Bytes())
}

// DecodeFrom replaces the shard with a blob's contents (ShardState
// contract). The classification tables are preserved — they are the
// decoder's configuration, never transferred.
func (s *EOSShard) DecodeFrom(r io.Reader) error {
	d, err := openFrom(r, "eos")
	if err != nil {
		return err
	}
	w, cov, first, last, err := decPrefix(d)
	if err != nil {
		return err
	}
	tables := EOSShard{
		TokenContracts: s.TokenContracts,
		ContractLabels: s.ContractLabels,
		EIDOSContract:  s.EIDOSContract,
	}
	*s = tables
	s.init(w.Origin, w.Bucket)
	s.covered = cov
	s.FirstBlockTime, s.LastBlockTime = first, last
	s.Blocks = d.Varint()
	s.Transactions = d.Varint()
	s.Actions = d.Varint()
	decCountMap(d, s.ActionsByName)
	decCountMap(d, s.ActionsByCategory)
	decSeries(d, s.Series)
	decNested(d, s.ReceivedByContract)
	decNested(d, s.SentPairs)
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		t := DEXTrade{
			Buyer:    d.String(),
			Seller:   d.String(),
			Currency: d.String(),
			Amount:   d.Float(),
		}
		if d.Err() == nil {
			s.Trades = append(s.Trades, t)
		}
	}
	s.boomerangs = d.Varint()
	s.eidosActions = d.Varint()
	n = d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		sym := d.String()
		v := d.Float()
		if d.Err() == nil {
			s.VolumeBySymbol[sym] += v
		}
	}
	s.BoomerangVolume = d.Float()
	return finishDecode("eos", d)
}

// EncodeTo writes the shard as a sealed blob (ShardState contract).
func (s *TezosShard) EncodeTo(w io.Writer, fence uint64) error {
	var e wire.ShardEnc
	encPrefix(&e, s.Window(), s.covered, s.FirstBlockTime, s.LastBlockTime)
	e.Varint(s.Blocks)
	e.Varint(s.Operations)
	encCountMap(&e, s.OpsByKind)
	encSeries(&e, s.Series)
	encNested(&e, s.sentTo)
	e.Uvarint(uint64(len(s.Votes)))
	for _, v := range s.Votes {
		e.Time(v.Time)
		e.Varint(v.Level)
		e.String(v.Kind)
		e.String(v.Proposal)
		e.String(v.Ballot)
		e.Varint(v.Rolls)
		e.String(v.Source)
	}
	return sealTo(w, "tezos", fence, e.Bytes())
}

// DecodeFrom replaces the shard with a blob's contents (ShardState
// contract).
func (s *TezosShard) DecodeFrom(r io.Reader) error {
	d, err := openFrom(r, "tezos")
	if err != nil {
		return err
	}
	w, cov, first, last, err := decPrefix(d)
	if err != nil {
		return err
	}
	*s = TezosShard{}
	s.init(w.Origin, w.Bucket)
	s.covered = cov
	s.FirstBlockTime, s.LastBlockTime = first, last
	s.Blocks = d.Varint()
	s.Operations = d.Varint()
	decCountMap(d, s.OpsByKind)
	decSeries(d, s.Series)
	decNested(d, s.sentTo)
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		v := GovernanceVote{
			Time:     d.Time(),
			Level:    d.Varint(),
			Kind:     d.String(),
			Proposal: d.String(),
			Ballot:   d.String(),
			Rolls:    d.Varint(),
			Source:   d.String(),
		}
		if d.Err() == nil {
			s.Votes = append(s.Votes, v)
		}
	}
	return finishDecode("tezos", d)
}

// EncodeTo writes the shard as a sealed blob (ShardState contract).
func (s *XRPShard) EncodeTo(w io.Writer, fence uint64) error {
	var e wire.ShardEnc
	encPrefix(&e, s.Window(), s.covered, s.FirstLedgerTime, s.LastLedgerTime)
	e.Varint(s.Ledgers)
	e.Varint(s.Transactions)
	e.Varint(s.Failed)
	encCountMap(&e, s.TxByType)
	encCountMap(&e, s.TxByResult)
	encSeries(&e, s.Series)
	accounts := make([]string, 0, len(s.byAccount))
	for addr := range s.byAccount {
		accounts = append(accounts, addr)
	}
	sort.Strings(accounts)
	e.Uvarint(uint64(len(accounts)))
	for _, addr := range accounts {
		agg := s.byAccount[addr]
		e.String(addr)
		e.Varint(agg.Total)
		encCountMap(&e, agg.ByType)
		tags := make([]uint32, 0, len(agg.DestTags))
		for tag := range agg.DestTags {
			tags = append(tags, tag)
		}
		sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
		e.Uvarint(uint64(len(tags)))
		for _, tag := range tags {
			e.Uvarint(uint64(tag))
			e.Varint(agg.DestTags[tag])
		}
	}
	e.Uvarint(uint64(len(s.payments)))
	for _, p := range s.payments {
		e.Time(p.Time)
		e.String(p.From)
		e.String(p.To)
		e.Uvarint(uint64(p.DestTag))
		e.String(p.Currency)
		e.String(p.Issuer)
		e.Varint(p.Value)
		e.Bool(p.Success)
		e.Bool(p.Native)
	}
	e.Varint(s.offersCreated)
	encOfferSet(&e, s.offersExecuted)
	encOfferSet(&e, s.restingOffers)
	e.Uvarint(uint64(len(s.exchanges)))
	for _, ex := range s.exchanges {
		e.Time(ex.Time)
		e.Varint(ex.LedgerIndex)
		e.String(ex.Base.Currency)
		e.String(ex.Base.Issuer)
		e.String(ex.Counter.Currency)
		e.String(ex.Counter.Issuer)
		e.Varint(ex.BaseValue)
		e.Varint(ex.CounterValue)
		e.String(ex.Maker)
		e.String(ex.Taker)
		e.Uvarint(uint64(ex.MakerSequence))
	}
	return sealTo(w, "xrp", fence, e.Bytes())
}

// DecodeFrom replaces the shard with a blob's contents (ShardState
// contract).
func (s *XRPShard) DecodeFrom(r io.Reader) error {
	d, err := openFrom(r, "xrp")
	if err != nil {
		return err
	}
	w, cov, first, last, err := decPrefix(d)
	if err != nil {
		return err
	}
	*s = XRPShard{}
	s.init(w.Origin, w.Bucket)
	s.covered = cov
	s.FirstLedgerTime, s.LastLedgerTime = first, last
	s.Ledgers = d.Varint()
	s.Transactions = d.Varint()
	s.Failed = d.Varint()
	decCountMap(d, s.TxByType)
	decCountMap(d, s.TxByResult)
	decSeries(d, s.Series)
	// Every collection below is sized once from the count just read —
	// capHint bounds it by what the rest of the blob could hold — instead
	// of growing from empty as elements arrive.
	n := d.Count()
	s.byAccount = make(map[string]*xrpAccountAgg, capHint(d, n, 4))
	for i := 0; i < n && d.Err() == nil; i++ {
		addr := d.String()
		agg := &xrpAccountAgg{Total: d.Varint()}
		agg.ByType = decNewCountMap[string](d)
		tn := d.Count()
		agg.DestTags = make(map[uint32]int64, capHint(d, tn, 2))
		for j := 0; j < tn && d.Err() == nil; j++ {
			tag := d.Uvarint()
			count := d.Varint()
			if d.Err() == nil {
				agg.DestTags[uint32(tag)] += count
			}
		}
		if d.Err() == nil {
			s.byAccount[addr] = agg
		}
	}
	n = d.Count()
	s.payments = make([]xrpPayment, 0, capHint(d, n, 9))
	for i := 0; i < n && d.Err() == nil; i++ {
		p := xrpPayment{
			Time:     d.Time(),
			From:     d.String(),
			To:       d.String(),
			DestTag:  uint32(d.Uvarint()),
			Currency: d.String(),
			Issuer:   d.String(),
			Value:    d.Varint(),
			Success:  d.Bool(),
			Native:   d.Bool(),
		}
		if d.Err() == nil {
			s.payments = append(s.payments, p)
		}
	}
	s.offersCreated = d.Varint()
	s.offersExecuted = decOfferSet(d)
	s.restingOffers = decOfferSet(d)
	n = d.Count()
	s.exchanges = make([]XRPExchange, 0, capHint(d, n, 11))
	for i := 0; i < n && d.Err() == nil; i++ {
		ex := XRPExchange{
			Time:          d.Time(),
			LedgerIndex:   d.Varint(),
			Base:          XRPAssetKey{Currency: d.String(), Issuer: d.String()},
			Counter:       XRPAssetKey{Currency: d.String(), Issuer: d.String()},
			BaseValue:     d.Varint(),
			CounterValue:  d.Varint(),
			Maker:         d.String(),
			Taker:         d.String(),
			MakerSequence: uint32(d.Uvarint()),
		}
		if d.Err() == nil {
			s.exchanges = append(s.exchanges, ex)
		}
	}
	return finishDecode("xrp", d)
}

// encOfferSet writes an offer-reference set sorted by account then
// sequence.
func encOfferSet(e *wire.ShardEnc, set map[offerRef]bool) {
	refs := make([]offerRef, 0, len(set))
	for ref := range set {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Account != refs[j].Account {
			return refs[i].Account < refs[j].Account
		}
		return refs[i].Sequence < refs[j].Sequence
	})
	e.Uvarint(uint64(len(refs)))
	for _, ref := range refs {
		e.String(ref.Account)
		e.Uvarint(uint64(ref.Sequence))
	}
}

// capHint is the capacity to give a collection of n elements the blob
// claims to hold: n itself, unless the bytes left could not encode that
// many at minBytes apiece — then a damaged or hostile count is talking, and
// the decode loop behind the hint will run dry and say so.
func capHint(d *wire.ShardDec, n, minBytes int) int {
	if most := d.Remaining() / minBytes; n > most {
		return most
	}
	return n
}

// decOfferSet reads a set written by encOfferSet.
func decOfferSet(d *wire.ShardDec) map[offerRef]bool {
	n := d.Count()
	set := make(map[offerRef]bool, capHint(d, n, 2))
	for i := 0; i < n && d.Err() == nil; i++ {
		account := d.String()
		seq := d.Uvarint()
		if d.Err() == nil {
			set[offerRef{Account: account, Sequence: uint32(seq)}] = true
		}
	}
	return set
}

// DecodeShard opens one sealed shard blob: it peeks the envelope's chain
// name, builds that chain's empty state and decodes into it — the merge
// coordinator's entry point for blobs of unknown chain.
func DecodeShard(blob []byte) (ShardState, error) {
	chainName, _, _, err := wire.OpenShard(blob)
	if err != nil {
		return nil, err
	}
	// The placeholder geometry is immediately replaced by the blob's own
	// window during DecodeFrom.
	st, err := NewShardState(chainName, time.Unix(0, 0).UTC(), time.Second)
	if err != nil {
		return nil, err
	}
	if err := st.DecodeFrom(bytes.NewReader(blob)); err != nil {
		return nil, err
	}
	return st, nil
}
