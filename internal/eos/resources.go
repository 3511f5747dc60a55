package eos

import (
	"time"
)

// Resources is the per-account slice of the EOS resource model. EOS has no
// per-transaction fees; instead accounts stake EOS for CPU and NET bandwidth
// and buy RAM outright. This design is what made the zero-cost EIDOS
// boomerang spam possible (§4.1 of the paper).
type Resources struct {
	CPUStaked int64 // EOS (raw, 4 decimals) staked for CPU
	NETStaked int64 // EOS staked for network bandwidth
	RAMBytes  int64 // bytes of RAM owned
	RAMUsed   int64 // bytes of RAM consumed by table rows
	CPURented int64 // EOS-equivalent CPU rented through REX (rentcpu)

	// cpuUsedMicros is the usage accumulated in the current decay window.
	cpuUsedMicros int64
	windowStart   time.Time
}

// cpuWeight is the account's effective CPU stake including rentals.
func (r *Resources) cpuWeight() int64 { return r.CPUStaked + r.CPURented }

// ResourceState models the chain-wide CPU market: total capacity, elastic
// expansion in normal times, the hard stake-proportional quota once the
// network enters congestion mode, and a rental price index that spikes with
// utilization (the paper reports a 10,000 % CPU price spike after the EIDOS
// launch).
type ResourceState struct {
	// CPUMicrosPerSecond is the chain's virtual CPU budget per wall second.
	CPUMicrosPerSecond int64
	// ElasticMultiplier is how far usage may exceed the guaranteed quota
	// while the network is uncongested (eosio defaults to 1000×).
	ElasticMultiplier int64
	// CongestionThreshold is the utilization fraction (0..1) above which
	// the network flips into congestion mode.
	CongestionThreshold float64
	// Window is the usage decay window for per-account accounting.
	Window time.Duration

	totalStaked int64
	congested   bool
	// utilEMA is an exponential moving average of per-block utilization.
	utilEMA float64
	// baseRentPrice is the uncongested price (EOS per CPU-ms-per-day).
	baseRentPrice float64
}

// NewResourceState returns the market with eosio-flavoured defaults.
func NewResourceState() *ResourceState {
	return &ResourceState{
		CPUMicrosPerSecond:  400_000, // 200ms per 0.5s block
		ElasticMultiplier:   1000,
		CongestionThreshold: 0.80,
		Window:              24 * time.Hour,
		baseRentPrice:       0.0001,
	}
}

// Congested reports whether the network is in congestion mode, during which
// accounts are limited to their stake-proportional CPU quota.
func (rs *ResourceState) Congested() bool { return rs.congested }

// Utilization returns the smoothed CPU utilization fraction.
func (rs *ResourceState) Utilization() float64 { return rs.utilEMA }

// RentPriceIndex returns the current CPU rental price relative to the
// uncongested baseline (1.0 = baseline). The price follows an exponential
// curve in utilization so a saturated network produces the multi-hundred-fold
// spike observed in the paper.
func (rs *ResourceState) RentPriceIndex() float64 {
	u := rs.utilEMA
	if u <= rs.CongestionThreshold {
		return 1 + u
	}
	// Above the threshold the multiplier grows super-linearly; at u=1.0 the
	// index reaches ~101 (a 10,000% increase over baseline).
	over := (u - rs.CongestionThreshold) / (1 - rs.CongestionThreshold)
	return 1 + u + 100*over*over
}

// ObserveBlock folds one block's usage into the utilization average and
// updates the congestion flag. capacityMicros is the block's CPU budget.
func (rs *ResourceState) ObserveBlock(usedMicros, capacityMicros int64) {
	if capacityMicros <= 0 {
		return
	}
	u := float64(usedMicros) / float64(capacityMicros)
	if u > 1 {
		u = 1
	}
	const alpha = 0.05
	rs.utilEMA = rs.utilEMA*(1-alpha) + u*alpha
	if rs.utilEMA >= rs.CongestionThreshold {
		rs.congested = true
	} else if rs.utilEMA < rs.CongestionThreshold*0.75 {
		// Hysteresis: leave congestion only after utilization has dropped
		// well below the trigger, as eosio's greylist behaviour does.
		rs.congested = false
	}
}

// chargeCPU attempts to bill micros of CPU to the account at time now.
// It returns false when the account has exhausted its allowance, which is
// exactly the failure EIDOS miners hit once the chain congested.
func (rs *ResourceState) chargeCPU(r *Resources, now time.Time, micros int64) bool {
	if now.Sub(r.windowStart) >= rs.Window {
		r.windowStart = now
		r.cpuUsedMicros = 0
	}
	limit := rs.accountLimitMicros(r)
	if r.cpuUsedMicros+micros > limit {
		return false
	}
	r.cpuUsedMicros += micros
	return true
}

// accountLimitMicros computes the account's CPU allowance for one window.
// In normal mode accounts may consume far more than their stake guarantees
// (the elastic multiplier, plus a small free allowance that lets unstaked
// casual users play); once the network congests, only the stake-
// proportional guarantee remains — the exact mechanism that locked casual
// gamers out during the EIDOS flood (§4.1).
func (rs *ResourceState) accountLimitMicros(r *Resources) int64 {
	if rs.totalStaked <= 0 {
		return 0
	}
	windowBudget := rs.CPUMicrosPerSecond * int64(rs.Window/time.Second)
	guaranteed := float64(windowBudget) * float64(r.cpuWeight()) / float64(rs.totalStaked)
	if rs.congested {
		if guaranteed < 1 {
			return 0
		}
		return int64(guaranteed)
	}
	elastic := guaranteed * float64(rs.ElasticMultiplier)
	if free := float64(windowBudget) / 10_000; elastic < free {
		elastic = free
	}
	if elastic > float64(windowBudget) {
		elastic = float64(windowBudget)
	}
	return int64(elastic)
}

// Stake adds amount to the account's CPU stake and the global total.
func (rs *ResourceState) Stake(r *Resources, cpu, net int64) {
	r.CPUStaked += cpu
	r.NETStaked += net
	rs.totalStaked += cpu
}

// Unstake removes stake; amounts are clamped to the current stake.
func (rs *ResourceState) Unstake(r *Resources, cpu, net int64) {
	if cpu > r.CPUStaked {
		cpu = r.CPUStaked
	}
	if net > r.NETStaked {
		net = r.NETStaked
	}
	r.CPUStaked -= cpu
	r.NETStaked -= net
	rs.totalStaked -= cpu
}

// Rent adds REX-rented CPU weight to the account (30-day rental in eosio;
// the simulation does not expire rentals inside the 3-month window).
func (rs *ResourceState) Rent(r *Resources, cpuWeight int64) {
	r.CPURented += cpuWeight
	rs.totalStaked += cpuWeight
}

// RAMMarket is the Bancor-style connector eosio uses to price RAM. Buying
// RAM removes bytes from the connector and deposits EOS, moving the price.
type RAMMarket struct {
	BaseBytes  int64 // RAM remaining in the connector
	QuoteFunds int64 // EOS (raw) in the connector
}

// NewRAMMarket seeds the market; defaults sized so early buys are cheap.
func NewRAMMarket() *RAMMarket {
	return &RAMMarket{BaseBytes: 64 << 30, QuoteFunds: 10_000_000_0000}
}

// BuyBytes purchases bytes for the EOS cost returned; it implements the
// constant-product update. Returns the cost in raw EOS.
func (m *RAMMarket) BuyBytes(bytes int64) int64 {
	if bytes <= 0 || bytes >= m.BaseBytes {
		return 0
	}
	// cost = quote * bytes / (base - bytes) (Bancor with CW=1/2 simplified
	// to constant product, which preserves the price-impact property).
	cost := m.QuoteFunds * bytes / (m.BaseBytes - bytes)
	if cost < 1 {
		cost = 1
	}
	m.BaseBytes -= bytes
	m.QuoteFunds += cost
	return cost
}

// BuyForEOS spends raw EOS and returns the bytes received.
func (m *RAMMarket) BuyForEOS(eosRaw int64) int64 {
	if eosRaw <= 0 {
		return 0
	}
	bytes := m.BaseBytes * eosRaw / (m.QuoteFunds + eosRaw)
	m.BaseBytes -= bytes
	m.QuoteFunds += eosRaw
	return bytes
}
