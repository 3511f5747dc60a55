package rpcserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/eos"
	"repro/internal/testkit"
	"repro/internal/tezos"
	"repro/internal/wire"
	"repro/internal/workload"
)

// busiestEOSBlocks simulates a small EOS scenario and returns its two
// blocks with the most actions.
func busiestEOSBlocks(t *testing.T) (*eos.Chain, *eos.Block, *eos.Block) {
	t.Helper()
	s, err := workload.BuildEOS(workload.EOSOptions{Scale: 1_000_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	var first, second *eos.Block
	for n := uint32(1); n <= s.Chain.HeadNum(); n++ {
		b := s.Chain.GetBlock(n)
		switch {
		case first == nil || actions(b) > actions(first):
			first, second = b, first
		case second == nil || actions(b) > actions(second):
			second = b
		}
	}
	if second == nil || len(second.Transactions) < 2 {
		t.Fatal("scenario has no two blocks with transactions")
	}
	return s.Chain, first, second
}

// actions counts a block's actions, user and inline.
func actions(b *eos.Block) (n int) {
	for _, tx := range b.Transactions {
		n += len(tx.Actions)
	}
	return n
}

// TestEOSWireBlockSteadyStateAllocs pins what get_block's conversion
// allocates once its converter and block struct are warm: the block id, the
// previous id, the timestamp and the one string holding every transaction
// id. Account and action names come from the converter's memo; data and
// authorization maps are cleared and refilled.
func TestEOSWireBlockSteadyStateAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	_, first, second := busiestEOSBlocks(t)
	var cv converter
	var j wire.EOSBlockJSON
	pair := func() {
		cv.eosBlock(first, &j)
		cv.eosBlock(second, &j)
	}
	pair()
	pair()
	if allocs := testing.AllocsPerRun(200, pair); allocs != 8 {
		t.Fatalf("converting the block pair (%d and %d actions) allocates %v times, want 8",
			actions(first), actions(second), allocs)
	}
}

// TestTezosWireBlockSteadyStateAllocs pins the Tezos block conversion once
// its block struct is warm: the block hash, the predecessor's hash and the
// timestamp. Operations carry no id of their own.
func TestTezosWireBlockSteadyStateAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	s, err := workload.BuildTezos(workload.TezosOptions{Scale: 4_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var busiest *tezos.Block
	for l := int64(1); l <= s.Chain.HeadLevel(); l++ {
		if b := s.Chain.GetBlock(l); busiest == nil || len(b.Operations) > len(busiest.Operations) {
			busiest = b
		}
	}
	var j wire.TezosBlockJSON
	convert := func() { tezosWireBlock(busiest, &j) }
	convert()
	if allocs := testing.AllocsPerRun(200, convert); allocs != 3 {
		t.Fatalf("converting a block of %d operations allocates %v times, want 3", len(busiest.Operations), allocs)
	}
}

// TestConcurrentGetBlock serves get_block from several goroutines at once,
// so pooled converters and their name memos pass between requests. Every
// body must equal the one a lone request got, and every name and id in it
// must be the simulator's own rendering.
func TestConcurrentGetBlock(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		c, _, _ := busiestEOSBlocks(t)
		srv := NewEOSServer(c)
		get := func(n uint32) []byte {
			req := httptest.NewRequest(http.MethodPost, "/v1/chain/get_block",
				bytes.NewReader([]byte(`{"block_num_or_id":`+strconv.FormatUint(uint64(n), 10)+`}`)))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("block %d: status %d", n, rec.Code)
			}
			return rec.Body.Bytes()
		}
		head := c.HeadNum()
		want := make([][]byte, head+1)
		for n := uint32(1); n <= head; n++ {
			want[n] = get(n)
			checkEOSBody(t, c.GetBlock(n), want[n])
		}
		const workers, rounds = 8, 3
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := uint32(0); i < head; i++ {
						n := 1 + (i*7+uint32(w)*13+uint32(r))%head
						if got := get(n); !bytes.Equal(got, want[n]) {
							t.Errorf("block %d: a concurrent request got a different body", n)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// checkEOSBody decodes a get_block body and holds every name and id in it
// to the simulator's block.
func checkEOSBody(t *testing.T, b *eos.Block, body []byte) {
	t.Helper()
	var j wire.EOSBlockJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("block %d: %v", b.Num, err)
	}
	if j.ID != b.ID.String() || j.Previous != b.Previous.String() || j.Producer != b.Producer.String() {
		t.Fatalf("block %d: header %q %q %q", b.Num, j.ID, j.Previous, j.Producer)
	}
	if len(j.Transactions) != len(b.Transactions) {
		t.Fatalf("block %d: %d transactions, want %d", b.Num, len(j.Transactions), len(b.Transactions))
	}
	for i, tx := range b.Transactions {
		tj := j.Transactions[i].Trx
		if tj.ID != tx.ID.String() || len(tj.Transaction.Actions) != len(tx.Actions) {
			t.Fatalf("block %d tx %d: id %q with %d actions", b.Num, i, tj.ID, len(tj.Transaction.Actions))
		}
		for k, act := range tx.Actions {
			aj := tj.Transaction.Actions[k]
			if aj.Account != act.Account.String() || aj.Name != act.ActionName.String() {
				t.Fatalf("block %d tx %d action %d: %s::%s", b.Num, i, k, aj.Account, aj.Name)
			}
			for m, auth := range act.Authorization {
				if aj.Authorization[m]["actor"] != auth.Actor.String() {
					t.Fatalf("block %d tx %d action %d: actor %q", b.Num, i, k, aj.Authorization[m]["actor"])
				}
			}
		}
	}
}
