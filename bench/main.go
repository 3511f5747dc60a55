// Command bench is this repository's benchmark: five named workloads over
// one seeded three-chain dataset, every duration reported at reference
// speed from many short rounds, figures checked byte for byte against an
// oracle on every round, and — from a separate traced run — a per-layer
// budget taken by decorators this package owns. See README.md.
//
//	go run ./bench -workload replay -seed 1            # end-to-end metrics
//	go run ./bench -workload replay -seed 1 -trace 1   # per-layer metrics + budget table
//	go run ./bench -selfcheck                          # do two sets of runs agree?
//
// Standard output carries exactly one line: a JSON object with the keys
// correct, attempted, failed and metrics. The detailed report (N, p25/p75,
// seed, constants, go version) and the budget table go to standard error.
// Nothing is written to disk unless -spans names a file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are the command line. The driver runs
//
//	<command> --workload NAME --seed N --seconds RUN_SECONDS --trace 0|1
//
// so all four are its interface, not tuning knobs: -seconds is always
// BENCHMARK.json's run_seconds there, and a run of any other length is not
// comparable with the benchmark's numbers.
type options struct {
	workload  workloadDef
	seed      int64
	seconds   float64
	trace     bool
	spansPath string
	selfcheck bool
}

const usage = "usage: bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] | bench -selfcheck [-seed N]"

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		o     options
		name  = fs.String("workload", "", "workload to run: "+workloadNames())
		trace = fs.Int("trace", 0, "1: alternate traced rounds and print the per-layer metrics instead of the end-to-end ones")
	)
	fs.Int64Var(&o.seed, "seed", 1, "seed for the dataset, the query mix and the send schedule")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the measured phase lasts")
	fs.StringVar(&o.spansPath, "spans", "", "with -trace 1, write every span to this file as JSON lines")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice, interleaved, and check that the two sets agree within each metric's bound")
	if err := fs.Parse(args); err != nil {
		return o, fmt.Errorf("%v\n%s", err, usage)
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		return o, fmt.Errorf("%s", usage)
	}
	o.trace = *trace == 1
	if o.selfcheck {
		return o, nil
	}
	w, ok := findWorkload(*name)
	if !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	o.workload = w
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(maxProcs)
	ctx := context.Background()

	if o.selfcheck {
		if !runSelfcheck(ctx, os.Stdout, o.seed) {
			os.Exit(1)
		}
		return
	}
	cfg := benchConfig(o.workload, o.seed, o.seconds, o.trace)
	var spans *os.File
	if o.spansPath != "" && cfg.trace {
		if spans, err = os.Create(o.spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		cfg.spans = spans
	}
	rep, err := runWorkload(ctx, cfg)
	if spans != nil {
		if cerr := spans.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	writeReport(os.Stderr, rep)
	if err := writeResult(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed\n", rep.Failed, rep.Attempted)
		os.Exit(1)
	}
}

// benchConfig is the benchmark proper: the full dataset, three set-ups, and
// never fewer than minRounds rounds however slow the box.
func benchConfig(w workloadDef, seed int64, seconds float64, trace bool) runConfig {
	cfg := runConfig{
		workload: w, seed: seed, trace: trace,
		budget: time.Duration(seconds * float64(time.Second)), minRounds: minRounds,
		scales: benchScales, setups: setupRepeats,
	}
	if trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	return cfg
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// reported returns the metric set a run prints on standard output: the
// end-to-end metrics untraced, the per-layer metrics traced.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// writeResult prints the one-line result object.
func writeResult(w io.Writer, rep *runReport) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for _, def := range reported(rep.Trace) {
		m := rep.Metrics[def.name]
		out.Metrics[def.name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeReport prints the detailed report and, after a traced run, the
// per-layer budget table.
func writeReport(w io.Writer, rep *runReport) {
	shown := *rep
	shown.Metrics = map[string]metricValue{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := rep.Metrics[def.name]; ok && (m.N > 0 || m.Value != 0) {
			shown.Metrics[def.name] = m
		}
	}
	doc, err := json.MarshalIndent(&shown, "", "  ")
	if err != nil {
		fmt.Fprintln(w, "bench: encoding report:", err)
		return
	}
	fmt.Fprintf(w, "%s\n", doc)
	if rep.Trace {
		rep.budget.write(w, rep.tracedRounds)
	}
}

// runSelfcheck runs every workload twice, interleaved A B A B (all
// workloads, then all again — so each pair is minutes apart and the box
// has time to drift), and prints |A−B|/A per end-to-end metric beside
// its bound. It reports whether every pair agrees and every run was
// correct.
func runSelfcheck(ctx context.Context, out io.Writer, seed int64) bool {
	var passes [2][]*runReport
	ok := true
	for p := range passes {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "selfcheck: pass %c, %s\n", 'A'+p, w.name)
			rep, err := runWorkload(ctx, benchConfig(w, seed, defaultSeconds, false))
			if err != nil {
				fmt.Fprintf(out, "%s: %v\n", w.name, err)
				return false
			}
			if !rep.Correct {
				fmt.Fprintf(out, "%s: %d of %d operations failed\n", w.name, rep.Failed, rep.Attempted)
				ok = false
			}
			passes[p] = append(passes[p], rep)
		}
	}
	fmt.Fprintf(out, "%-11s %-14s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "|A-B|/A", "bound")
	for i, w := range workloads {
		for _, def := range endToEnd {
			a, b := passes[0][i].Metrics[def.name].Value, passes[1][i].Metrics[def.name].Value
			diff := math.Abs(a-b) / a
			verdict := "ok"
			if !(diff <= def.bound) {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(out, "%-11s %-14s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", w.name, def.name, a, b, 100*diff, 100*def.bound, verdict)
		}
	}
	return ok
}
