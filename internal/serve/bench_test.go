package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
)

// benchSetup builds a handler over a publisher pre-loaded with enough
// blocks that summaries and figures have realistic shape.
func benchSetup(b *testing.B) (http.Handler, *Publisher, *core.EOSAggregator, func()) {
	p, agg, release := newEOSPublisher(b)
	if err := agg.IngestBatch(eosBlocks(2048, 1)); err != nil {
		b.Fatal(err)
	}
	p.Publish()
	return NewHandler(p), p, agg, release
}

func queryLoop(b *testing.B, h http.Handler) {
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/summary/eos", nil))
			if w.Code != http.StatusOK {
				b.Errorf("status %d", w.Code)
				return
			}
		}
	})
}

// BenchmarkServeQuery measures the lock-free read path: concurrent summary
// queries against a quiescent snapshot.
func BenchmarkServeQuery(b *testing.B) {
	h, _, _, release := benchSetup(b)
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	queryLoop(b, h)
}

// BenchmarkServeIngestWhileQuery measures the same query loop while a
// writer keeps ingesting batches and publishing epochs — the acceptance
// criterion that ingest load must not drag the read path. Readers only
// ever touch an immutable snapshot behind one atomic load, so this must
// stay within the benchgate budget of the quiescent profile.
func BenchmarkServeIngestWhileQuery(b *testing.B) {
	h, p, agg, release := benchSetup(b)
	defer release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := agg.IngestBatch(eosBlocks(16, 10_000+i*16)); err != nil {
				b.Errorf("ingest: %v", err)
				return
			}
			p.Publish()
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	queryLoop(b, h)
	b.StopTimer()
	close(stop)
	wg.Wait()
}
