package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smokeConfig(w workloadDef, trace bool) runConfig {
	return runConfig{
		workload: w, seed: 2, trace: trace,
		budget: 0, minRounds: 2, scales: tinyScales, setups: 1,
		// The real kernel costs ~80 ms a call; it has its own test.
		kernel: func() kernelReading {
			return kernelReading{serial: refSerialMS * time.Millisecond, parallel: refParallelMS * time.Millisecond}
		},
	}
}

// Every workload runs clean at tiny scale, untraced and traced, and prints
// a result line of the contracted shape.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(w, trace)
			if trace {
				cfg.minRounds = 4 // two untraced, two traced
			}
			rep, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			var line bytes.Buffer
			if err := writeResult(&line, rep); err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool `json:"correct"`
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s: result line %q: %v", w.name, line.String(), err)
			}
			if bytes.Count(line.Bytes(), []byte("\n")) != 1 {
				t.Errorf("%s: result is not one line", w.name)
			}
			want := reported(trace)
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the result line, want %d", w.name, trace, len(got.Metrics), len(want))
			}
			for _, def := range want {
				m, ok := got.Metrics[def.name]
				if !ok || m.Value == nil || m.Unit != def.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.name, trace, def.name, m.Unit, def.unit)
					continue
				}
				if !trace && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, def.name, *m.Value)
				}
			}
			if trace {
				checkLayers(t, w.name, rep)
			}
			var report bytes.Buffer
			writeReport(&report, rep)
			if !bytes.Contains(report.Bytes(), []byte(`"go_version"`)) || !bytes.Contains(report.Bytes(), []byte(`"REF_NOMINAL_MS"`)) {
				t.Errorf("%s: report lacks go_version or the constants", w.name)
			}
		}
	}
}

// checkLayers asserts the per-layer metrics that must be non-zero on a
// workload are, and the ones predicted flat read zero.
func checkLayers(t *testing.T, name string, rep *runReport) {
	t.Helper()
	v := func(metric string) float64 { return rep.Metrics[metric].Value }
	for _, always := range []string{
		"rpcserve.encode_us_per_block", "wire.decode_allocs_per_block", "archive.open_ms", "archive.walk_us_per_block",
		"archive.comp_ratio", "core.replay_scaling_2w", "core.merge_ms", "core.render_ms", "core.shard_encode_ms",
		"core.shard_decode_ms", "core.shard_kb", "serve.publish_ms", "serve.handler_us.status", "serve.handler_us.summary",
		"serve.handler_us.figures", "serve.handler_us.percentiles", "raw.ops_per_s", "ref.kernel_ms", "ref.drift_ratio", "ref.parallel_slowdown",
		"rounds", "trace.overhead_ratio", "go.alloc_kb_per_op",
	} {
		if v(always) <= 0 {
			t.Errorf("%s: %s = %v, want > 0 on every workload", name, always, v(always))
		}
	}
	on := map[string][]string{
		"crawl":      {"collect.fetch_us_per_block", "collect.fetch_busy_share", "archive.append_us_per_block", "wire.decode_us_per_block.eos", "core.aggregate_us_per_block.xrp", "blobstore.puts", "blobstore.put_kb", "tx_per_s", "mb_per_s"},
		"replay":     {"wire.decode_us_per_block.tezos", "core.aggregate_us_per_block.eos", "blobstore.gets", "tx_per_s"},
		"coordinate": {"coord.lease_ops", "coord.lease_us", "coord.runstate_ckpts", "coord.runstate_us", "blobstore.puts", "blobstore.gets", "blobstore.op_us", "collect.fetch_us_per_block", "wire.decode_us_per_block.xrp"},
		"serve":      {"serve.publishes", "wire.decode_us_per_block.eos", "core.aggregate_us_per_block.tezos"},
		"query":      {},
	}
	off := map[string][]string{
		"crawl":      {"coord.lease_ops", "serve.publishes", "serve.open_p50_us"},
		"replay":     {"collect.fetch_us_per_block", "archive.append_us_per_block", "coord.lease_ops", "blobstore.puts", "serve.publishes"},
		"coordinate": {"archive.append_us_per_block", "serve.publishes"},
		"serve":      {"collect.fetch_us_per_block", "archive.append_us_per_block", "coord.lease_ops", "blobstore.puts"},
		"query":      {"collect.fetch_us_per_block", "wire.decode_us_per_block.eos", "coord.lease_ops", "blobstore.puts", "tx_per_s", "mb_per_s", "serve.publishes"},
	}
	for _, m := range on[name] {
		if v(m) <= 0 {
			t.Errorf("%s: %s = %v, want > 0 (the layer runs here)", name, m, v(m))
		}
	}
	for _, m := range off[name] {
		if v(m) != 0 {
			t.Errorf("%s: %s = %v, want 0 (the layer does not run here)", name, m, v(m))
		}
	}
}

// Spans are written only when asked, as JSON lines with the five fields.
func TestSpansFile(t *testing.T) {
	w, _ := findWorkload("replay")
	cfg := smokeConfig(w, true)
	var spans bytes.Buffer
	cfg.spans = &spans
	if _, err := runWorkload(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(spans.Bytes()), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("%d span lines", len(lines))
	}
	for _, l := range lines {
		var s map[string]any
		if err := json.Unmarshal(l, &s); err != nil {
			t.Fatalf("span line %q: %v", l, err)
		}
		for _, k := range []string{"name", "start", "end", "parent", "round"} {
			if _, ok := s[k]; !ok {
				t.Fatalf("span %q lacks %q", l, k)
			}
		}
	}
}

// BENCHMARK.json and metrics.go/workloads.go declare the same benchmark.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if want := []string{"go", "run", "./bench"}; len(doc.Command) != 3 || doc.Command[0] != want[0] || doc.Command[1] != want[1] || doc.Command[2] != want[2] {
		t.Errorf("command = %v, want %v", doc.Command, want)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in metrics.go", len(got), kind, len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, metrics.go %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, def.name, def.unit, def.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != def.bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from metrics.go's %v", def.name, def.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", def.name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// The driver's command line, spelled as the driver spells it.
func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "coordinate", "--seed", "7", "--seconds", "20", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload.name != "coordinate" || o.seed != 7 || o.seconds != 20 || !o.trace || o.selfcheck {
		t.Errorf("parsed %+v", o)
	}
	if o, err = parseArgs([]string{"-workload", "replay"}); err != nil || o.seed != 1 || o.seconds != defaultSeconds || o.trace {
		t.Errorf("defaults: %+v, %v", o, err)
	}
	if o, err = parseArgs([]string{"-selfcheck", "-seed", "2"}); err != nil || !o.selfcheck || o.seed != 2 {
		t.Errorf("selfcheck: %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{}, {"-workload", "nope"}, {"-workload", "replay", "-trace", "2"}, {"-workload", "replay", "-seconds", "0"},
		{"-workload", "replay", "extra"}, {"-workload", "replay", "-rounds", "3"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%q) accepted", bad)
		}
	}
}
