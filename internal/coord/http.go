// Live progress export: the active coordinator serves its task table over
// HTTP while the crawl runs, so a degraded week-long run is observable
// before it exits. Same copy-on-write idiom as internal/serve: the run
// loop publishes immutable Progress snapshots through an atomic pointer,
// and the read path is one atomic load — no locks, no contention with the
// crawl.
package coord

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// Progress is one immutable snapshot of a running coordinator: the
// GapReport shape (so mid-run and final reports parse identically) plus
// per-task lease/attempt/fence status and the election epoch.
type Progress struct {
	// Report is the gap report as of this snapshot: Missing covers every
	// block range no validated shard covers yet, Failures the tasks that
	// already failed terminally. Complete stays false until the run ends.
	Report GapReport `json:"report"`
	// Owner and Epoch identify the active coordinator and its election
	// attempt.
	Owner string `json:"owner"`
	Epoch int    `json:"epoch"`
	// Tasks is the per-slice status, ascending by index.
	Tasks []TaskProgress `json:"tasks"`
	// UpdatedAt is when the snapshot was published, by the coordinator's
	// lease clock.
	UpdatedAt time.Time `json:"updated_at"`
}

// TaskProgress is one task's row in a Progress snapshot. It is what this
// coordinator knows: after a takeover, Fence is the fence it granted or
// read off the task's lease record, and Attempts counts its own worker
// launches, not those of the coordinators before it.
type TaskProgress struct {
	Task     string `json:"task"`
	Index    int    `json:"index"`
	From     int64  `json:"from"`
	To       int64  `json:"to"`
	State    string `json:"state"`
	Fence    uint64 `json:"fence,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ProgressTracker publishes Progress snapshots to concurrent readers. The
// zero value is ready to use and reports "no snapshot yet" until the
// first Publish.
type ProgressTracker struct {
	cur atomic.Pointer[Progress]
}

// Publish makes p the current snapshot. The tracker owns p from here on;
// the caller must not mutate it.
func (t *ProgressTracker) Publish(p *Progress) { t.cur.Store(p) }

// Snapshot returns the current snapshot, or nil before the first Publish.
func (t *ProgressTracker) Snapshot() *Progress { return t.cur.Load() }

// progressFrom renders a task table, ascending by index, into a snapshot
// under head's report header, owner, epoch and stamp: done tasks leave
// coverage, everything else lands in Missing, failed tasks also land in
// Failures — the same accounting the final report does, computed from
// task status instead of merged shards.
func progressFrom(head Progress, tasks []TaskProgress) *Progress {
	p := &head
	p.Tasks = slices.Clone(tasks)
	var missing []GapRange
	for _, tp := range p.Tasks {
		if tp.State != TaskDone {
			missing = append(missing, GapRange{From: tp.From, To: tp.To})
		}
		if tp.State == TaskFailed {
			p.Report.Failures = append(p.Report.Failures, GapFailure{
				Task: tp.Task, From: tp.From, To: tp.To, Error: tp.Error,
			})
		}
	}
	// Coalesce adjacent missing ranges so the mid-run report matches the
	// final report's "ascending and non-adjacent" contract.
	for _, g := range missing {
		if n := len(p.Report.Missing); n > 0 && p.Report.Missing[n-1].To+1 == g.From {
			p.Report.Missing[n-1].To = g.To
			continue
		}
		p.Report.Missing = append(p.Report.Missing, g)
	}
	return p
}

// NewProgressHandler serves the tracker over HTTP:
//
//	GET /v1/progress — current Progress snapshot as JSON
//	GET /healthz     — liveness, 200 once the server is up
//
// Every response carries X-Coord-Epoch (0 before the first snapshot), so
// a poller can detect a takeover — the epoch bumps — without parsing the
// body. /v1/progress returns 503 until the first snapshot publishes: an
// elected-but-not-yet-resumed coordinator has nothing truthful to report.
func NewProgressHandler(t *ProgressTracker) http.Handler {
	mux := http.NewServeMux()
	stamp := func(w http.ResponseWriter, p *Progress) {
		epoch := 0
		if p != nil {
			epoch = p.Epoch
		}
		w.Header().Set("X-Coord-Epoch", strconv.Itoa(epoch))
	}
	mux.HandleFunc("GET /v1/progress", func(w http.ResponseWriter, r *http.Request) {
		p := t.Snapshot()
		stamp(w, p)
		if p == nil {
			http.Error(w, "no progress snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		stamp(w, t.Snapshot())
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}
