package core

import (
	"sort"
	"time"
)

// A spam cluster is a group of accounts activated by a common parent whose
// payments stay almost entirely within the group — the signature of the
// rpJZ5WyotdphojwMLxCr2prhULvG3Voe3X incident (§4.3): one account activated
// 5,020 children within a week and had them exchange meaningless payments,
// burning real fees to inflate throughput. Only groups of at least
// spamMinMembers whose internal share reaches spamMinInternalShare count.
const (
	spamMinMembers       = 10
	spamMinInternalShare = 0.8
)

// spamCluster is one detected payment mill. Internal payments run between
// members or member↔parent, external ones leave or enter the cluster, and
// zeroValue of the internal ones move a token with no positive XRP rate;
// activationSpan runs from the first member's activation to the last.
type spamCluster struct {
	parent                        string
	members                       int
	internal, external, zeroValue int64
	internalShare, zeroValueShare float64
	activationSpan                time.Duration
}

// activation is who activated an account, and when.
type activation struct {
	parent string
	at     time.Time
}

// paymentView is the projection of a successful payment the detector reads.
type paymentView struct {
	From, To string
	HasValue bool
}

// detectSpamClusters groups accounts by the parent that activated them and
// returns the groups that look like self-contained payment mills, largest
// first.
func detectSpamClusters(activations map[string]activation, payments []paymentView) []spamCluster {
	clusters := make(map[string]*spamCluster)
	get := func(parent string) *spamCluster {
		if clusters[parent] == nil {
			clusters[parent] = &spamCluster{parent: parent}
		}
		return clusters[parent]
	}
	for _, p := range payments {
		from, to := activations[p.From].parent, activations[p.To].parent
		// Member → member of the same cluster, or flows touching the hub
		// itself.
		hub := ""
		switch {
		case from != "" && (from == to || p.To == from):
			hub = from
		case to != "" && p.From == to:
			hub = to
		default:
			if from != "" {
				get(from).external++
			}
			if to != "" && to != from {
				get(to).external++
			}
			continue
		}
		c := get(hub)
		c.internal++
		if !p.HasValue {
			c.zeroValue++
		}
	}
	first, last := make(map[string]time.Time), make(map[string]time.Time)
	for _, act := range activations {
		get(act.parent).members++
		if f, ok := first[act.parent]; !ok || act.at.Before(f) {
			first[act.parent] = act.at
		}
		if l, ok := last[act.parent]; !ok || act.at.After(l) {
			last[act.parent] = act.at
		}
	}
	var out []spamCluster
	for parent, c := range clusters {
		if c.members < spamMinMembers || c.internal == 0 {
			continue
		}
		if c.internalShare = float64(c.internal) / float64(c.internal+c.external); c.internalShare < spamMinInternalShare {
			continue
		}
		c.zeroValueShare = float64(c.zeroValue) / float64(c.internal)
		c.activationSpan = last[parent].Sub(first[parent])
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].members != out[j].members {
			return out[i].members > out[j].members
		}
		return out[i].parent < out[j].parent
	})
	return out
}

// paymentViews projects the shard's successful payments for the spam
// detector, valuing tokens through rates.
func (a *XRPShard) paymentViews(rates rateTable) []paymentView {
	out := make([]paymentView, len(a.payments))
	for i := range a.payments {
		p := &a.payments[i]
		out[i] = paymentView{From: p.From, To: p.To, HasValue: rates.of(p.asset()) > 0}
	}
	return out
}
