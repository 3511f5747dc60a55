// Command coordinate is the fault-tolerant supervisor of a distributed
// crawl: it pins the block range (resolving head once if -to is 0), cuts
// it into -shards contiguous slices, claims each slice with a lease blob
// in the shared store, and launches one worker subprocess per slice —
// relaunching crashed or flaky workers under a bounded retry policy with
// exponential backoff and full jitter (internal/retry). Workers crawl
// with crash-recoverable checkpoints (-checkpoint-every): a worker that
// is SIGKILLed mid-slice resumes its relaunch from the last checkpoint
// instead of block one.
//
// As each worker exits, the coordinator validates the shard blob it must
// have emitted (present, decodable, covering exactly the slice) — a
// clean-looking exit is not believed. When every slice validates, the
// shards are merged through the shard reader and refusal ladder cmd/merge
// joins stores with (internal/coord owns both) and the figures print to
// stdout, byte-identical to a single-process crawl.
//
// Degradation is graceful and loud: when a slice exhausts its retries
// the coordinator still merges what arrived, prints the PARTIAL figures,
// writes a machine-readable gap report (-gap-report) naming the missing
// block ranges and per-slice errors, and exits non-zero.
//
// The coordinator is itself killable. It wins a run-level lease before
// doing anything — exactly one active coordinator per chain — and writes
// the run's plan once: the pinned range and shard count (the store layout
// is internal/coord's, see its shard.go). A -standby instance polls the
// election and takes over on lease expiry by adopting that plan; it reads
// each slice's status off the store — a slice whose shard validates at
// its lease record's fence is done — and resumes mid-run instead of
// re-cutting. Every worker crawls under a fence token (its slice lease's
// attempt count, which a released lease keeps) stamped into the emitted
// shard, so a zombie worker whose lease was reclaimed cannot clobber the
// reclaimer's newer shard — stale fences are refused at validation and
// merge. With -debug-addr the coordinator serves, while running, GET
// /v1/progress from memory — the gap-report shape plus per-task state,
// fence and launches, with the election epoch in X-Coord-Epoch — and
// net/http/pprof at /debug/pprof/, on one listener.
//
// SIGINT or SIGTERM interrupts the run gracefully: each worker is sent a
// SIGTERM, writes one checkpoint of every chunk it holds complete, and
// a rerun of the same command adopts the plan and resumes those
// checkpoints.
//
// This command is the only launcher of a distributed crawl and its worker
// the only shard producer. A fleet is several runs of it, each over its
// own -from/-to sub-range and its own -store; cmd/merge joins the stores.
//
// Usage:
//
//	coordinate -chain eos -endpoint URL -to N -shards 4 -store STORE [-checkpoint-every N] [-gap-report FILE] [-standby] [-debug-addr HOST:PORT]
//
// Every slice runs at once. A worker fetches with -workers fetchers,
// retries a block 3 times from a 200 ms backoff, and decodes on 2 ingest
// workers behind a 64-block stream buffer.
//
// The store may use the faulty+ scheme (see internal/blobstore) to
// inject seeded random faults; -chaos-kill I additionally SIGKILLs slice
// I's first worker attempt right after its first checkpoint, and
// -chaos-kill-coordinator SIGKILLs the active coordinator itself, with
// the workers it is running, right after its first slice validates — a
// host dying mid-run, which TestEveryPathPrintsThePaper drives with a
// -standby instance finishing the run.
//
// Stdout carries only the figures. Diagnostics are log/slog text records
// on stderr, which the worker subprocesses share.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/retry"
)

// workerEnv carries a worker invocation's whole configuration from the
// coordinator process to the re-exec'd worker subprocess as one JSON
// blob, so the worker needs no flag parsing of its own and the test
// binary can serve as the worker executable (TestMain re-exec).
const workerEnv = "COORDINATE_WORKER_PAYLOAD"

// workerPayload is the JSON shape under workerEnv.
type workerPayload struct {
	Chain    string `json:"chain"`
	Endpoint string `json:"endpoint"`
	From     int64  `json:"from"`
	To       int64  `json:"to"`
	Store    string `json:"store"`
	Every    int64  `json:"every"`
	Workers  int    `json:"workers"`
	// Fence is the lease fence token the worker stamps into its emitted
	// shard — the slice lease's attempt count, granted by the coordinator
	// that launched this worker.
	Fence uint64 `json:"fence"`
	// KillAfterCheckpoint makes the worker SIGKILL itself right after its
	// first successful checkpoint Put — the chaos harness's way of dying
	// at a known-recoverable instant.
	KillAfterCheckpoint bool `json:"kill_after_checkpoint"`
}

type coordOpts struct {
	chain          string
	endpoint       string
	from, to       int64
	shards         int
	store          string
	every          int64
	leaseTTL       time.Duration
	attempts       int
	backoff        time.Duration
	workers        int
	gapReport      string
	chaosKill      int
	owner          string
	standby        bool
	debugAddr      string
	chaosKillCoord bool
}

func main() {
	// Worker mode: the coordinator re-execs this very binary with the
	// payload env set. Check before flag parsing — a worker has no flags.
	if payload := os.Getenv(workerEnv); payload != "" {
		os.Exit(workerMain(payload, slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}

	var o coordOpts
	flag.StringVar(&o.chain, "chain", "", "eos, tezos or xrp")
	flag.StringVar(&o.endpoint, "endpoint", "", "endpoint URL every worker crawls")
	flag.Int64Var(&o.from, "from", 1, "first block")
	flag.Int64Var(&o.to, "to", 0, "last block (0 = resolve head once, before cutting slices)")
	flag.IntVar(&o.shards, "shards", 2, "slices to cut the range into (one worker subprocess each)")
	flag.StringVar(&o.store, "store", "", "shared blob store for leases, checkpoints and shards (supports the faulty+ chaos scheme)")
	flag.Int64Var(&o.every, "checkpoint-every", 0, "checkpoint chunk size in blocks: how far, at most, a worker's crash-recoverable checkpoint trails its crawl when the store keeps up (0 = none: a killed worker restarts its slice)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 2*time.Minute, "lease time-to-live; a slice whose coordinator misses renewals this long is reclaimable")
	flag.IntVar(&o.attempts, "attempts", 4, "worker launches per slice before giving up")
	flag.DurationVar(&o.backoff, "backoff", 500*time.Millisecond, "base relaunch backoff (exponential, full jitter)")
	flag.IntVar(&o.workers, "workers", 4, "concurrent fetchers per worker (xrp uses 1)")
	flag.StringVar(&o.gapReport, "gap-report", "", "write the machine-readable gap report JSON to this file (default: stderr when the run is incomplete)")
	flag.IntVar(&o.chaosKill, "chaos-kill", 0, "chaos: SIGKILL slice I's first worker attempt after its first checkpoint (0 = off)")
	flag.StringVar(&o.owner, "owner", "", "coordinator name in lease records (default coordinator-<pid>; must be unique per process)")
	flag.BoolVar(&o.standby, "standby", false, "stand by: poll the run-level lease and take over the run when the active coordinator's lease expires")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve GET /v1/progress (503 until the first snapshot) and net/http/pprof at /debug/pprof/ on this host:port while running (empty = no listener)")
	flag.BoolVar(&o.chaosKillCoord, "chaos-kill-coordinator", false, "chaos: SIGKILL this coordinator and its running workers right after its first slice validates (a -standby instance must finish the run)")
	flag.Parse()
	if o.chain == "" || o.endpoint == "" || o.store == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o, os.Stdout, os.Stderr); errors.Is(err, errUsage) {
		os.Exit(2)
	} else if err != nil {
		os.Exit(1)
	}
}

// errUsage marks a flag value run refuses before it dials anything; main
// exits 2 for it, like a missing flag.
var errUsage = errors.New("usage")

// workerMain is one shard worker: decode the payload, crawl the slice
// with crash-recoverable checkpoints, emit the shard. It is this binary
// re-exec'd, so a SIGKILL here is a real process death the coordinator
// observes and retries. SIGINT and SIGTERM cancel the crawl instead: the
// worker exits 1 having lost only the chunk that was open.
func workerMain(payload string, log *slog.Logger) int {
	var p workerPayload
	if err := json.Unmarshal([]byte(payload), &p); err != nil {
		log.Error("worker: bad payload", "err", err)
		return 2
	}
	kit, err := core.NewStatsKit(p.Chain, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		log.Error("worker failed", "err", err)
		return 2
	}
	fetcher, closeFetcher, maxWorkers, err := collect.Dial(p.Chain, p.Endpoint)
	if err != nil {
		log.Error("worker failed", "err", err)
		return 2
	}
	defer closeFetcher()
	if maxWorkers > 0 {
		p.Workers = maxWorkers
	}
	store, err := blobstore.Resolve(p.Store)
	if err != nil {
		log.Error("worker failed", "err", err)
		return 2
	}
	cfg := coord.CrawlerConfig{
		Kit: kit, Fetcher: fetcher, From: p.From, To: p.To,
		Store: store, CheckpointEvery: p.Every,
		// A block gets 3 retries from a 200 ms backoff before the attempt fails.
		Workers: p.Workers, MaxRetries: 3, Backoff: 200 * time.Millisecond,
		Fence: p.Fence,
		Log:   log,
	}
	if p.KillAfterCheckpoint {
		cfg.AfterCheckpoint = func(core.BlockRange) {
			// Die NOW, uncatchably — the checkpoint just written is the
			// recovery point the relaunched attempt must resume from.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, err := coord.RunShardCrawl(ctx, cfg); err != nil {
		log.Error("worker failed", "err", err)
		return 1
	}
	return 0
}

// run executes one coordinated crawl, logging onto diag and ending on a
// record of the error it returns. The worker subprocesses write to diag
// too: an *os.File they inherit, or else a writer safe for concurrent use.
// run is the whole command behind flag parsing and signal wiring so tests
// can drive it hermetically (with the test binary itself as the worker
// executable).
func run(ctx context.Context, o coordOpts, out, diag io.Writer) (err error) {
	log := slog.New(slog.NewTextHandler(diag, nil))
	defer func() {
		if err != nil {
			log.Error("coordinate failed", "err", err)
		}
	}()
	// Leases renew, and the standby polls, at a third of the TTL: a TTL
	// whose third is zero would claim leases born expired and panic the
	// renewal ticker, or hammer the store without pause.
	if o.leaseTTL/3 <= 0 {
		return fmt.Errorf("%w: -lease-ttl %v: a third of it must be positive", errUsage, o.leaseTTL)
	}
	// Config.Cut refuses this too, but only after the lease, state and head.
	if o.shards < 1 {
		return fmt.Errorf("%w: -shards %d: must be at least 1", errUsage, o.shards)
	}
	head, closeHead, _, err := collect.Dial(o.chain, o.endpoint)
	if err != nil {
		return err
	}
	defer closeHead()

	owner := o.owner
	if owner == "" {
		// Unique per process: the restart-after-crash re-claim path treats
		// a live lease under OUR name as ours, so two coordinators must
		// never share a name by default.
		owner = fmt.Sprintf("coordinator-%d", os.Getpid())
	}

	store, err := blobstore.Resolve(o.store)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating worker executable: %w", err)
	}

	// Progress export: listening from process start, 503 with epoch 0
	// until the first snapshot publishes — a standby's port answers while
	// it waits, so pollers can watch the takeover happen.
	tracker := &coord.ProgressTracker{}
	stopDebug, err := cli.ServeDebug(o.debugAddr, coord.NewProgressHandler(tracker), log)
	if err != nil {
		return err
	}
	defer stopDebug()

	launcher := &workerLauncher{opts: o, exe: exe, diag: diag,
		attempts: make(map[int]int), running: make(map[*exec.Cmd]bool)}
	cfg := coord.Config{
		Chain: o.chain, From: o.from, To: o.to,
		Shards:   o.shards,
		Store:    store,
		Owner:    owner,
		LeaseTTL: o.leaseTTL,
		Retry:    retry.Policy{Attempts: o.attempts, Base: o.backoff},
		Run:      launcher.launch,
		Log:      log,
		Progress: tracker,
		// Head is resolved lazily, ONCE per run lineage: only when no run
		// plan exists to adopt. Every slice is cut from the same pinned
		// span, never from each worker's own racing notion of "head" — and
		// a takeover adopts the interrupted run's pin instead of this.
		PinHead: func(ctx context.Context) (int64, error) {
			to, err := head.Head(ctx)
			if err != nil {
				return 0, err
			}
			log.Info("pinned head", "chain", o.chain, "head", to)
			return to, nil
		},
	}
	if o.chaosKillCoord {
		var once sync.Once
		cfg.AfterTaskDone = func(t coord.Task) {
			once.Do(func() {
				log.Warn("chaos: SIGKILLing active coordinator and its workers", "chain", t.Chain, "task", t.Name())
				launcher.killRunning()
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			})
		}
	}

	if o.standby {
		rec, finished, serr := standbyAwait(ctx, o, store, owner, log.With("chain", o.chain, "owner", owner))
		if serr != nil {
			return serr
		}
		if finished {
			return nil
		}
		cfg.RunLease = rec
	}

	res, runErr := coord.Run(ctx, cfg)
	if res == nil {
		return runErr
	}

	// Figures first — partial or complete, they are the deliverable. The
	// gap report then says exactly how much to trust them.
	if res.Merged != nil {
		fmt.Fprint(out, core.Figures(res.Merged))
	}
	if o.gapReport != "" {
		f, ferr := os.Create(o.gapReport)
		if ferr != nil {
			return errors.Join(runErr, ferr)
		}
		werr := res.Report.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return errors.Join(runErr, fmt.Errorf("writing gap report: %w", werr))
		}
		log.Info("gap report written", "path", o.gapReport)
	} else if !res.Report.Complete {
		if werr := res.Report.WriteJSON(diag); werr != nil {
			return errors.Join(runErr, werr)
		}
	}
	return runErr
}

// standbyAwait is the standby election loop: poll the run-level lease and
// run plan until this process either wins a takeover (returning the won
// lease for coord.Run to adopt) or observes the run complete (finished =
// true). A standby only ever CONTINUES a run — it claims the election
// only after evidence one exists (a plan, or a live run lease); a fresh
// store, or one holding only an expired run lease a released election
// left, just keeps it waiting, so starting the standby before the active
// is safe.
func standbyAwait(ctx context.Context, o coordOpts, store blobstore.Store, owner string, log *slog.Logger) (*coord.LeaseRecord, bool, error) {
	leases := coord.NewLeases(store, owner, o.leaseTTL)
	task := coord.RunLeaseTask(o.chain)
	poll := o.leaseTTL / 3
	log.Info("standing by", "lease", task, "poll", poll)
	sawRun := false
	for {
		_, hasState, serr := coord.LoadRunState(ctx, store, o.chain)
		rec, hasLease, lerr := leases.Holder(ctx, task)
		live := hasLease && time.Now().Before(rec.Deadline)
		sawRun = sawRun || hasState || live
		switch {
		case serr != nil || lerr != nil:
			// Decide nothing on half a picture: poll again.
			log.Warn("standby: reading run plan and lease (transient)", "err", errors.Join(serr, lerr))
		case sawRun && !hasState && !live:
			// Completion deletes the plan, then the lease records; death
			// leaves the plan behind. Plan gone and no live election after
			// a run we watched means it finished.
			log.Info("run completed; standing down")
			return nil, true, nil
		case sawRun:
			rec, cerr := leases.Claim(ctx, task)
			if cerr == nil {
				if _, ok, err := coord.LoadRunState(ctx, store, o.chain); err == nil && !ok {
					// Won the election but the plan is gone: the active
					// completed between our probe and the claim.
					_ = leases.Release(ctx, rec)
					log.Info("run completed; standing down")
					return nil, true, nil
				}
				log.Info("taking over", "epoch", rec.Attempt)
				return &rec, false, nil
			}
			var held *coord.ErrHeld
			if !errors.As(cerr, &held) {
				log.Warn("standby: election claim (transient)", "err", cerr)
			}
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// workerGrace is how long a worker whose attempt was cancelled (an
// interrupted coordinator, a lost lease) has, after the launcher's SIGTERM,
// to put its last complete checkpoint before the launcher SIGKILLs it.
const workerGrace = 10 * time.Second

// workerLauncher execs one worker subprocess per attempt, tracking
// attempt counts per slice so -chaos-kill poisons only the FIRST attempt
// of its target (the relaunch must be allowed to recover), and the
// workers running now so -chaos-kill-coordinator can take them down too.
type workerLauncher struct {
	opts coordOpts
	exe  string
	diag io.Writer

	mu       sync.Mutex
	attempts map[int]int        // launches per slice index
	running  map[*exec.Cmd]bool // workers started and not yet reaped
}

// killRunning SIGKILLs every worker running now — what a dying host takes
// down with its coordinator.
func (l *workerLauncher) killRunning() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for cmd := range l.running {
		_ = cmd.Process.Kill() // one that just exited is already reaped
	}
}

// track adds a started worker to the running set, or removes a reaped one.
func (l *workerLauncher) track(cmd *exec.Cmd, running bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if running {
		l.running[cmd] = true
	} else {
		delete(l.running, cmd)
	}
}

func (l *workerLauncher) attempt(index int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts[index]++
	return l.attempts[index]
}

func (l *workerLauncher) launch(ctx context.Context, t coord.Task) error {
	o := l.opts
	attempt := l.attempt(t.Index)
	p := workerPayload{
		Chain: o.chain, Endpoint: o.endpoint,
		From: t.From, To: t.To,
		Store: o.store, Every: o.every,
		Workers:             o.workers,
		Fence:               t.Fence,
		KillAfterCheckpoint: o.chaosKill == t.Index && attempt == 1,
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return retry.Permanent(err)
	}
	cmd := exec.CommandContext(ctx, l.exe)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = workerGrace
	cmd.Env = append(os.Environ(), workerEnv+"="+string(raw))
	cmd.Stdout = l.diag
	cmd.Stderr = l.diag
	err = cmd.Start()
	if err == nil {
		l.track(cmd, true)
		err = cmd.Wait()
		l.track(cmd, false)
	}
	if err != nil {
		return fmt.Errorf("worker %s (attempt %d): %w", t.Name(), attempt, err)
	}
	return nil
}
