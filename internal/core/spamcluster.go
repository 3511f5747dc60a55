package core

import (
	"sort"
	"time"
)

// SpamCluster is a group of accounts activated by a common parent whose
// payments stay almost entirely within the group — the signature of the
// rpJZ5WyotdphojwMLxCr2prhULvG3Voe3X incident (§4.3): one account activated
// 5,020 children within a week and had them exchange meaningless payments,
// burning real fees to inflate throughput.
type SpamCluster struct {
	Parent string
	// Members activated by the parent (including indirect activations is
	// left to the caller's clustering).
	Members int
	// InternalPayments are payments between members (or member↔parent).
	InternalPayments int64
	// ExternalPayments leave or enter the cluster.
	ExternalPayments int64
	// InternalShare is InternalPayments / (Internal+External).
	InternalShare float64
	// ActivationSpan is the time between the first and last member
	// activation the detector saw (the incident: 5,020 in one week).
	ActivationSpan time.Duration
	// ZeroValueShare is the fraction of internal payments whose token has
	// no positive XRP rate.
	ZeroValueShare float64
}

// SpamClusterDetector accumulates activation parentage and payment flows,
// then reports clusters that look like self-contained payment mills.
type SpamClusterDetector struct {
	// MinMembers is the minimum cluster size to report (default 10).
	MinMembers int
	// MinInternalShare is the minimum internal-payment share (default 0.8).
	MinInternalShare float64

	parentOf  map[string]string
	activated map[string]time.Time
}

// NewSpamClusterDetector builds a detector.
func NewSpamClusterDetector() *SpamClusterDetector {
	return &SpamClusterDetector{
		MinMembers:       10,
		MinInternalShare: 0.8,
		parentOf:         make(map[string]string),
		activated:        make(map[string]time.Time),
	}
}

// ObserveActivation records that child was activated by parent at ts.
func (d *SpamClusterDetector) ObserveActivation(parent, child string, ts time.Time) {
	d.parentOf[child] = parent
	d.activated[child] = ts
}

// Merge folds another detector's observations in, deterministically: when
// both saw an activation for the same child, the earlier one wins (an
// account is activated once; later sightings are replays), with the
// lexicographically smaller parent breaking exact-time ties so the merged
// state never depends on merge order.
func (d *SpamClusterDetector) Merge(other *SpamClusterDetector) {
	for child, parent := range other.parentOf {
		ts := other.activated[child]
		cur, seen := d.activated[child]
		if !seen || ts.Before(cur) || (ts.Equal(cur) && parent < d.parentOf[child]) {
			d.parentOf[child] = parent
			d.activated[child] = ts
		}
	}
}

// Detect analyses the aggregator's payments and returns clusters sorted by
// member count (largest first).
func (d *SpamClusterDetector) Detect(payments []XRPPaymentView) []SpamCluster {
	clusterOf := func(acct string) string { return d.parentOf[acct] }

	type accum struct {
		internal, external int64
		zeroValue          int64
	}
	stats := make(map[string]*accum)
	get := func(parent string) *accum {
		a := stats[parent]
		if a == nil {
			a = &accum{}
			stats[parent] = a
		}
		return a
	}
	for _, p := range payments {
		fromCluster := clusterOf(p.From)
		toCluster := clusterOf(p.To)
		// Member → member of the same cluster, or flows touching the hub
		// itself.
		switch {
		case fromCluster != "" && fromCluster == toCluster:
			a := get(fromCluster)
			a.internal++
			if !p.HasValue {
				a.zeroValue++
			}
		case fromCluster != "" && p.To == fromCluster:
			a := get(fromCluster)
			a.internal++
			if !p.HasValue {
				a.zeroValue++
			}
		case toCluster != "" && p.From == toCluster:
			a := get(toCluster)
			a.internal++
			if !p.HasValue {
				a.zeroValue++
			}
		default:
			if fromCluster != "" {
				get(fromCluster).external++
			}
			if toCluster != "" && toCluster != fromCluster {
				get(toCluster).external++
			}
		}
	}

	members := make(map[string]int)
	firstAct := make(map[string]time.Time)
	lastAct := make(map[string]time.Time)
	for child, parent := range d.parentOf {
		members[parent]++
		ts := d.activated[child]
		if f, ok := firstAct[parent]; !ok || ts.Before(f) {
			firstAct[parent] = ts
		}
		if l, ok := lastAct[parent]; !ok || ts.After(l) {
			lastAct[parent] = ts
		}
	}

	var out []SpamCluster
	for parent, n := range members {
		if n < d.MinMembers {
			continue
		}
		a := stats[parent]
		if a == nil || a.internal == 0 {
			continue
		}
		total := a.internal + a.external
		share := float64(a.internal) / float64(total)
		if share < d.MinInternalShare {
			continue
		}
		c := SpamCluster{
			Parent:           parent,
			Members:          n,
			InternalPayments: a.internal,
			ExternalPayments: a.external,
			InternalShare:    share,
			ActivationSpan:   lastAct[parent].Sub(firstAct[parent]),
		}
		if a.internal > 0 {
			c.ZeroValueShare = float64(a.zeroValue) / float64(a.internal)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Members != out[j].Members {
			return out[i].Members > out[j].Members
		}
		return out[i].Parent < out[j].Parent
	})
	return out
}

// XRPPaymentView is the minimal payment projection the detector needs.
type XRPPaymentView struct {
	From, To string
	HasValue bool
}

// PaymentViews projects the shard's successful payments for the spam
// detector, valuing tokens through the observed exchange rates.
func (a *XRPShard) PaymentViews() []XRPPaymentView {
	out := make([]XRPPaymentView, 0, len(a.payments))
	for _, p := range a.payments {
		if !p.Success {
			continue
		}
		hasValue := p.Native
		if !hasValue {
			hasValue = a.RateToXRP(XRPAssetKey{Currency: p.Currency, Issuer: p.Issuer}) > 0
		}
		out = append(out, XRPPaymentView{From: p.From, To: p.To, HasValue: hasValue})
	}
	return out
}
