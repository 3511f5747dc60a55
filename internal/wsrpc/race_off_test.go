//go:build !race

package wsrpc

const raceEnabled = false
