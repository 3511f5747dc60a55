// Package repro reproduces "Revisiting Transactional Statistics of
// High-scalability Blockchains" (Perez, Xu, Livshits — IMC 2020): chain
// simulators for EOS, Tezos and the XRP Ledger, the network APIs the paper
// crawled, a reverse-chronological collector, and the measurement pipeline
// that regenerates every table and figure of the evaluation.
//
// See DESIGN.md for the system inventory, the stage table and its runner, and
// the per-figure index, and bench_test.go for the per-figure regeneration
// harness (each table embeds the paper's reference values for comparison).
package repro
