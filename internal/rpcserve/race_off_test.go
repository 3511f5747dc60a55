//go:build !race

package rpcserve

const raceEnabled = false
