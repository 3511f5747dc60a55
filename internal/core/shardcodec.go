// Shard codec: the per-chain field schemas behind ShardState.EncodeTo and
// DecodeFrom, written against the bounds-checked primitives in
// internal/wire (ShardEnc/ShardDec) and sealed in the versioned,
// checksummed envelope (wire.SealShard). See DESIGN.md "distributed crawl
// & shard wire format" for the layout and compatibility rules.
//
// Encoding is deterministic: map keys sort before writing, every number is
// an integer varint, times carry an explicit zero flag. A shard encoded on
// one machine therefore decodes on another into state whose Merge renders
// byte-identical figures to an in-process merge of the same blocks.
//
// Deliberately not serialized:
//   - The EOS contract-class table (eosContracts): configuration, not
//     aggregate state.
//   - XRP explorer exchange records a shard never received: AddExchanges
//     runs on a drained aggregate after the crawl, never on a worker
//     shard, so a distributed crawl's shards carry none and whoever merges
//     them adds the explorer's records itself.

package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// shardEncoder is what one encode borrows from encoders: the body buffer
// and sort scratch, inner for count maps and keys for the maps around them.
type shardEncoder struct {
	wire.ShardEnc
	keys    []string
	inner   []string
	tags    []uint32
	refs    []offerRef
	entries []stats.Entry
}

var encoders = sync.Pool{New: func() any { return new(shardEncoder) }}

// borrowEncoder takes an encoder with an empty body from the pool; seal
// gives it back.
func borrowEncoder() *shardEncoder {
	x := encoders.Get().(*shardEncoder)
	x.Reset()
	return x
}

// seal appends the sealed body to dst and returns x to the pool.
func (x *shardEncoder) seal(dst []byte, chain string, fence uint64) []byte {
	dst = wire.SealShard(dst, chain, fence, x.Bytes())
	encoders.Put(x)
	return dst
}

// sortedKeys returns m's keys, sorted, in dst's storage.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// countMap writes a count map with sorted keys.
func (x *shardEncoder) countMap(m map[string]int64) {
	x.inner = sortedKeys(x.inner, m)
	x.Uvarint(uint64(len(x.inner)))
	for _, k := range x.inner {
		x.String(k)
		x.Varint(m[k])
	}
}

// decCountMap reads a count map written by countMap, adding into m — or,
// when m is nil, into a map sized for it — and returns the map.
func decCountMap(d *wire.ShardDec, m map[string]int64) map[string]int64 {
	n := d.Count()
	if m == nil {
		m = make(map[string]int64, capHint(d, n, 2))
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		v := d.Varint()
		if d.Err() == nil {
			m[k] += v
		}
	}
	return m
}

// nested writes a nested count map, both levels key-sorted.
func (x *shardEncoder) nested(m map[string]map[string]int64) {
	x.keys = sortedKeys(x.keys, m)
	x.Uvarint(uint64(len(x.keys)))
	for _, k := range x.keys {
		x.String(k)
		x.countMap(m[k])
	}
}

// decNested reads a nested count map written by nested into m.
func decNested(d *wire.ShardDec, m map[string]map[string]int64) {
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		inner := decCountMap(d, m[k])
		if d.Err() == nil {
			m[k] = inner
		}
	}
}

// series writes a time series as its sorted populated cells; geometry
// (origin, width) travels in the common shard prefix, not here.
func (x *shardEncoder) series(s *stats.TimeSeries) {
	x.entries = s.AppendEntries(x.entries[:0])
	x.Uvarint(uint64(len(x.entries)))
	for _, en := range x.entries {
		x.Uvarint(uint64(en.Bucket))
		x.String(en.Label)
		x.Varint(en.Count)
	}
}

// maxSeriesBuckets bounds the bucket span a decoded series may claim, so
// the dense slices a summary and a sparkline make from it (8 and 4 bytes a
// bucket) stay a few MiB whatever window the blob states: under a 1 ns
// window the bucket of an ordinary last observed time is in the 10^17s.
// A 6-hour series spans at most 427,007 buckets, where time.Duration
// saturates at 292 years, so every series the fold can make at the
// pipeline's 6- and 24-hour windows still decodes; the paper's seven months
// are about 850.
const maxSeriesBuckets = 1 << 19

// decSeries reads cells written by series into s. The fold counts a block
// into the bucket of the block's time, so no cell lies past the bucket of
// the shard's last observed time (last), nor past maxSeriesBuckets: a blob
// claiming one is corrupt, not a series to allocate for.
func decSeries(d *wire.ShardDec, s *stats.TimeSeries, last time.Time) {
	top := uint64(min(s.BucketIndex(last), maxSeriesBuckets-1))
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		bucket := d.UvarintMax(top)
		label := d.String()
		count := d.Varint()
		if d.Err() == nil {
			s.AddBucket(int(bucket), label, count)
		}
	}
}

// prefix writes the common shard prefix every chain shares: window
// geometry, covered block range and observed time bounds.
func (x *shardEncoder) prefix(w Window, cov BlockRange, first, last time.Time) {
	x.Time(w.Origin)
	x.Varint(int64(w.Bucket))
	x.Varint(cov.From)
	x.Varint(cov.To)
	x.Time(first)
	x.Time(last)
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

// bodyDecoder is a chain's state, which decodeBody replaces with the fields
// of an opened body.
type bodyDecoder interface {
	Chain() string
	decodeBody(d *wire.ShardDec) error
}

// decodeFrom opens a blob, checks that it holds st's chain and decodes its
// body into st in place.
func decodeFrom(st bodyDecoder, blob []byte) error {
	chain, _, body, err := wire.OpenShard(blob)
	if err != nil {
		return err
	}
	if chain != st.Chain() {
		return fmt.Errorf("core: decoding %q shard into %s state", chain, st.Chain())
	}
	return st.decodeBody(wire.NewShardDec(body))
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

// EncodeTo appends the shard's sealed blob to dst (ShardState contract).
func (s *EOSShard) EncodeTo(dst []byte, fence uint64) []byte {
	x := borrowEncoder()
	x.prefix(s.Window(), s.covered, s.FirstBlockTime, s.LastBlockTime)
	x.Varint(s.Blocks)
	x.Varint(s.Transactions)
	x.Varint(s.Actions)
	x.countMap(s.ActionsByName)
	x.series(s.Series)
	x.nested(s.ReceivedByContract)
	x.nested(s.SentPairs)
	x.Uvarint(uint64(len(s.Trades)))
	for _, t := range s.Trades {
		x.String(t.Buyer)
		x.String(t.Seller)
		x.String(t.Currency)
		x.Uvarint(uint64(t.Precision))
		x.Varint(t.Amount)
	}
	x.Varint(s.boomerangs)
	x.Varint(s.eidosActions)
	x.Varint(s.volume)
	x.Varint(s.boomerangVolume)
	return x.seal(dst, "eos", fence)
}

// DecodeFrom replaces the shard with a blob's contents (ShardState
// contract).
func (s *EOSShard) DecodeFrom(blob []byte) error { return decodeFrom(s, blob) }

// decodeBody replaces the shard with the fields of an opened EOS body.
func (s *EOSShard) decodeBody(d *wire.ShardDec) error {
	w, cov, first, last, err := decPrefix(d)
	if err != nil {
		return err
	}
	*s = EOSShard{}
	s.init(w.Origin, w.Bucket)
	s.covered = cov
	s.FirstBlockTime, s.LastBlockTime = first, last
	s.Blocks = d.Varint()
	s.Transactions = d.Varint()
	s.Actions = d.Varint()
	decCountMap(d, s.ActionsByName)
	decSeries(d, s.Series, last)
	decNested(d, s.ReceivedByContract)
	decNested(d, s.SentPairs)
	n := d.Count()
	s.Trades = make([]DEXTrade, 0, capHint(d, n, 5))
	for i := 0; i < n && d.Err() == nil; i++ {
		t := DEXTrade{
			Buyer:     d.String(),
			Seller:    d.String(),
			Currency:  d.String(),
			Precision: int(d.UvarintMax(math.MaxInt32)),
			Amount:    d.Varint(),
		}
		if d.Err() == nil {
			s.Trades = append(s.Trades, t)
		}
	}
	s.boomerangs = d.Varint()
	s.eidosActions = d.Varint()
	s.volume = d.Varint()
	s.boomerangVolume = d.Varint()
	return finishDecode("eos", d)
}

// EncodeTo appends the shard's sealed blob to dst (ShardState contract).
func (s *TezosShard) EncodeTo(dst []byte, fence uint64) []byte {
	x := borrowEncoder()
	x.prefix(s.Window(), s.covered, s.FirstBlockTime, s.LastBlockTime)
	x.Varint(s.Blocks)
	x.Varint(s.Operations)
	x.countMap(s.OpsByKind)
	x.series(s.Series)
	x.nested(s.sentTo)
	x.Uvarint(uint64(len(s.Votes)))
	for _, v := range s.Votes {
		x.Time(v.Time)
		x.String(v.Kind)
		x.String(v.Proposal)
		x.String(v.Ballot)
		x.Varint(v.Rolls)
	}
	return x.seal(dst, "tezos", fence)
}

// DecodeFrom replaces the shard with a blob's contents (ShardState
// contract).
func (s *TezosShard) DecodeFrom(blob []byte) error { return decodeFrom(s, blob) }

// decodeBody replaces the shard with the fields of an opened Tezos body.
func (s *TezosShard) decodeBody(d *wire.ShardDec) error {
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
	decSeries(d, s.Series, last)
	decNested(d, s.sentTo)
	n := d.Count()
	s.Votes = make([]GovernanceVote, 0, capHint(d, n, 5))
	for i := 0; i < n && d.Err() == nil; i++ {
		v := GovernanceVote{
			Time:     d.Time(),
			Kind:     d.String(),
			Proposal: d.String(),
			Ballot:   d.String(),
			Rolls:    d.Varint(),
		}
		if d.Err() == nil {
			s.Votes = append(s.Votes, v)
		}
	}
	return finishDecode("tezos", d)
}

// EncodeTo appends the shard's sealed blob to dst (ShardState contract).
func (s *XRPShard) EncodeTo(dst []byte, fence uint64) []byte {
	x := borrowEncoder()
	x.prefix(s.Window(), s.covered, s.FirstLedgerTime, s.LastLedgerTime)
	x.Varint(s.Ledgers)
	x.Varint(s.Transactions)
	x.Varint(s.Failed)
	x.countMap(s.TxByType)
	x.series(s.Series)
	x.keys = sortedKeys(x.keys, s.byAccount)
	x.Uvarint(uint64(len(x.keys)))
	for _, addr := range x.keys {
		agg := s.byAccount[addr]
		x.String(addr)
		x.Varint(agg.Total)
		x.Varint(agg.Offers)
		x.tags = x.tags[:0]
		for tag := range agg.DestTags {
			x.tags = append(x.tags, tag)
		}
		slices.Sort(x.tags)
		x.Uvarint(uint64(len(x.tags)))
		for _, tag := range x.tags {
			x.Uvarint(uint64(tag))
			x.Varint(agg.DestTags[tag])
		}
	}
	x.Uvarint(uint64(len(s.payments)))
	for _, p := range s.payments {
		x.String(p.From)
		x.String(p.To)
		x.String(p.Currency)
		x.String(p.Issuer)
		x.Varint(p.Value)
	}
	x.Varint(s.offersCreated)
	x.offerSet(s.offersExecuted)
	x.Uvarint(uint64(len(s.exchanges)))
	for _, ex := range s.exchanges {
		x.Time(ex.Time)
		x.String(ex.Base.Currency)
		x.String(ex.Base.Issuer)
		x.String(ex.Counter.Currency)
		x.String(ex.Counter.Issuer)
		x.Varint(ex.BaseValue)
		x.Varint(ex.CounterValue)
		x.String(ex.Maker)
		x.Uvarint(uint64(ex.MakerSequence))
	}
	return x.seal(dst, "xrp", fence)
}

// DecodeFrom replaces the shard with a blob's contents (ShardState
// contract).
func (s *XRPShard) DecodeFrom(blob []byte) error { return decodeFrom(s, blob) }

// decodeBody replaces the shard with the fields of an opened XRP body.
func (s *XRPShard) decodeBody(d *wire.ShardDec) error {
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
	decSeries(d, s.Series, last)
	// Every collection below is sized once from the count just read —
	// capHint bounds it by what the rest of the blob could hold — instead
	// of growing from empty as elements arrive.
	n := d.Count()
	s.byAccount = make(map[string]*xrpAccountAgg, capHint(d, n, 4))
	for i := 0; i < n && d.Err() == nil; i++ {
		addr := d.String()
		agg := &xrpAccountAgg{Total: d.Varint(), Offers: d.Varint()}
		tn := d.Count()
		if tn > 0 {
			agg.DestTags = make(map[uint32]int64, capHint(d, tn, 2))
		}
		for j := 0; j < tn && d.Err() == nil; j++ {
			tag := uint32(d.UvarintMax(math.MaxUint32))
			count := d.Varint()
			if d.Err() == nil {
				agg.DestTags[tag] += count
			}
		}
		if d.Err() == nil {
			s.byAccount[addr] = agg
		}
	}
	n = d.Count()
	s.payments = make([]xrpPayment, 0, capHint(d, n, 5))
	for i := 0; i < n && d.Err() == nil; i++ {
		p := xrpPayment{
			From:     d.String(),
			To:       d.String(),
			Currency: d.String(),
			Issuer:   d.String(),
			Value:    d.Varint(),
		}
		if d.Err() == nil {
			s.payments = append(s.payments, p)
		}
	}
	s.offersCreated = d.Varint()
	s.offersExecuted = decOfferSet(d)
	n = d.Count()
	s.exchanges = make([]XRPExchange, 0, capHint(d, n, 9))
	for i := 0; i < n && d.Err() == nil; i++ {
		ex := XRPExchange{
			Time:          d.Time(),
			Base:          XRPAssetKey{Currency: d.String(), Issuer: d.String()},
			Counter:       XRPAssetKey{Currency: d.String(), Issuer: d.String()},
			BaseValue:     d.Varint(),
			CounterValue:  d.Varint(),
			Maker:         d.String(),
			MakerSequence: uint32(d.UvarintMax(math.MaxUint32)),
		}
		if d.Err() == nil {
			s.exchanges = append(s.exchanges, ex)
		}
	}
	return finishDecode("xrp", d)
}

// offerSet writes an offer-reference set sorted by account then sequence.
func (x *shardEncoder) offerSet(set map[offerRef]bool) {
	x.refs = x.refs[:0]
	for ref := range set {
		x.refs = append(x.refs, ref)
	}
	slices.SortFunc(x.refs, func(a, b offerRef) int {
		return cmp.Or(strings.Compare(a.Account, b.Account), cmp.Compare(a.Sequence, b.Sequence))
	})
	x.Uvarint(uint64(len(x.refs)))
	for _, ref := range x.refs {
		x.String(ref.Account)
		x.Uvarint(uint64(ref.Sequence))
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

// decOfferSet reads a set written by offerSet.
func decOfferSet(d *wire.ShardDec) map[offerRef]bool {
	n := d.Count()
	set := make(map[offerRef]bool, capHint(d, n, 2))
	for i := 0; i < n && d.Err() == nil; i++ {
		account := d.String()
		seq := uint32(d.UvarintMax(math.MaxUint32))
		if d.Err() == nil {
			set[offerRef{Account: account, Sequence: seq}] = true
		}
	}
	return set
}

// EncodeShard serializes a shard state to its sealed blob, stamping the
// given fence token (0 = unfenced). The blob is its one allocation, and
// the error is always nil.
func EncodeShard(st ShardState, fence uint64) ([]byte, error) {
	return st.EncodeTo(nil, fence), nil
}

// DecodeShard opens one sealed shard blob and decodes its body, in place,
// into a fresh state of the chain the envelope names — the entry point for
// blobs of unknown chain.
func DecodeShard(blob []byte) (ShardState, error) {
	chainName, _, body, err := wire.OpenShard(blob)
	if err != nil {
		return nil, err
	}
	return DecodeShardBody(chainName, body)
}

// DecodeShardBody decodes a body wire.OpenShard returned into a fresh
// state of chainName, for a reader that needs the envelope's fence too.
func DecodeShardBody(chainName string, body []byte) (ShardState, error) {
	// The placeholder geometry gives way to the body's own window.
	st, err := NewShardState(chainName, time.Unix(0, 0).UTC(), time.Second)
	if err != nil {
		return nil, err
	}
	if err := st.(bodyDecoder).decodeBody(wire.NewShardDec(body)); err != nil {
		return nil, err
	}
	return st, nil
}
