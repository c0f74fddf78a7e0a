// Command daemonbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds influtrackd and this program), spawns
// influtrackd on loopback, drives one stream through a warm prefix, a
// drain phase and a paced open-loop phase over two HTTP connections, and
// checks the answer. With -trace 1 it also replays the same requests
// in-process through each layer's public functions and reports per-layer
// costs. See README.md for the workloads and metrics.
//
//	bash daemonbench/run.sh --workload checkin-histapprox --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the benchmark's flags.
type options struct {
	root       string // checkout root; build products live in root/.bench_build
	daemonBin  string
	workload   workload
	seed       int64
	seconds    float64
	trace      bool
	setups     int      // daemon set-ups; setup_s is their median
	port       int      // daemon port; 0 lets the OS pick (tests occupy one)
	daemonArgs []string // extra influtrackd flags (tests make it exit early)
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var name string
	var traceN int
	o := options{root: ".", daemonBin: ".bench_build/influtrackd", setups: 5}
	flag.StringVar(&name, "workload", "", "workload name: checkin-histapprox | retweet-sharded | durable-ingest")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (dataset generator, tracker and lifetimes)")
	flag.Float64Var(&o.seconds, "seconds", 50, "measured run length: a third drains a backlog, the rest is paced")
	flag.IntVar(&traceN, "trace", 0, "1: report per-layer metrics from a traced in-process replay")
	flag.Parse()
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		os.Exit(2)
	}
	o.workload, o.trace = w, traceN == 1
	if o.trace {
		o.setups = 1 // set-up time is an end-to-end metric, measured untraced
	}

	// SIGINT/SIGTERM cancel the run, which then cleans up on the normal
	// return path. SIGPIPE is caught so that a closed stdout turns into a
	// write error instead of killing the process before cleanup.
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	go func() {
		for s := range sigc {
			if s != syscall.SIGPIPE {
				cancel()
			}
		}
	}()

	res, err := run(ctx, o, os.Stdout)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench: FAIL:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result; report lines
// go to out. The daemon and its run directory are gone when it returns,
// whatever the path, a panic included.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	runsDir := filepath.Join(o.root, ".bench_build", "runs")
	removeStaleRuns(runsDir)
	runDir := filepath.Join(runsDir, fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()))
	defer os.RemoveAll(runDir)
	p := newPlan(o.workload, o.seed, o.seconds)
	s := newSession(o, p, runDir)
	defer s.close()

	oc, err := s.runDaemon(ctx)
	if err != nil {
		return nil, err
	}
	s.close()
	q, err := checkAnswer(p, oc)
	if err != nil {
		return nil, err
	}
	lag := make([]float64, len(oc.paced))
	for i, r := range oc.paced {
		lag[i] = float64(r.sent - r.due)
	}
	lagP99 := time.Duration(quantile(lag, 0.99))
	if lagP99 > maxLagP99 {
		return nil, fmt.Errorf("invalid run: generator lateness p99 %v exceeds %v", lagP99, maxLagP99)
	}

	bw := bufio.NewWriter(out)
	defer bw.Flush()
	fmt.Fprintf(bw, "daemonbench workload=%s seed=%d seconds=%g trace=%v cpu=%q nproc=%d\n",
		p.w.name, p.seed, o.seconds, o.trace, cpuModel(), runtime.NumCPU())
	fmt.Fprintf(bw, "requests warm=%d drain=%d paced=%d records=%d reads=%d setups=%v\n",
		p.nWarm, p.nDrain, p.nPaced, oc.acked, len(oc.reads), oc.setups)
	fmt.Fprintf(bw, "host steal_share=%.4f (CPU time the hypervisor took during the daemon run)\n", oc.stealShare)
	fmt.Fprintf(bw, "answer_digest=%s value=%d seeds=%s\n", digest(p, oc.answer), oc.answer.Value,
		strings.Join(oc.answer.labels(), ","))

	res := &result{Correct: true, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	report := func(name, unit, better string, v float64) {
		fmt.Fprintf(bw, "metric %-34s %14.4f %-6s (%s is better)\n", name, v, unit, better)
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if !o.trace {
		e2e := endToEnd(oc, q)
		for _, m := range e2e {
			report(m.name, m.unit, m.better, m.v)
		}
		// These are printed but left out of the result line: failed_share
		// is 0 on every passing run (attempted and failed carry it),
		// value_error is 0 on durable-ingest, and the client view is
		// reported per layer in traced runs.
		note := func(name, unit string, v float64) {
			fmt.Fprintf(bw, "note   %-34s %14.4f %-6s (lower is better)\n", name, v, unit)
		}
		note("failed_share", "ratio", float64(s.failed)/float64(max(1, s.attempted)))
		note("value_error", "ratio", q.valueErr)
		for _, m := range clientView(oc, lagP99) {
			note(m.name, m.unit, m.v)
		}
		return res, nil
	}

	walDir := filepath.Join(runDir, "replay-wal")
	rp, err := runReplay(p, walDir)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := rp.matchDaemon(oc.answer); err != nil {
		return nil, err
	}
	spans := filepath.Join(o.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", p.w.name, p.seed))
	if err := rp.tr.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(bw, "replay matches daemon; spans in %s\n", spans)
	self, total := rp.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(bw, "self %-22s %10.3f ms %6.2f%%\n", n, ms(self[n]), 100*float64(self[n])/float64(total))
	}
	for _, m := range append(perLayer(rp, q, float64(self["core.step"])/float64(total)), clientView(oc, lagP99)...) {
		report(m.name, m.unit, m.better, m.v)
	}
	return res, nil
}

type namedValue struct {
	name, unit, better string
	v                  float64
}

// endToEnd computes the metrics a user of the daemon sees.
func endToEnd(oc *outcome, q quality) []namedValue {
	setups := make([]float64, len(oc.setups))
	for i, d := range oc.setups {
		setups[i] = d.Seconds()
	}
	var topk []float64
	for _, r := range oc.reads {
		topk = append(topk, ms(r.end-r.start))
	}
	cpuUS := float64(oc.cpuTicks) * (1e6 / ticksPerSecond) / float64(oc.pacedRecords)
	return []namedValue{
		{"setup_s", "s", "lower", quantile(setups, 0.5)},
		{"drain_records_per_sec", "rec/s", "higher", quantile(oc.drainRates, 0.5)},
		{"visible_p50_ms", "ms", "lower", quantile(visibleMS(oc), 0.5)},
		{"topk_p50_ms", "ms", "lower", quantile(topk, 0.5)},
		{"topk_p99_ms", "ms", "lower", tailQuantile(topk, 0.99)},
		{"cpu_us_per_record", "us", "lower", cpuUS},
		{"rss_peak_mb", "MB", "lower", oc.rssMB},
		{"spread_ratio", "ratio", "higher", q.spread},
	}
}

// visibleMS is each paced request's due time → first /v1/topk read
// whose processed count covers it, in milliseconds.
func visibleMS(oc *outcome) []float64 {
	visible := make([]float64, 0, len(oc.paced))
	k := 0
	for _, r := range oc.paced {
		for oc.reads[k].processed < r.through {
			k++
		}
		visible = append(visible, ms(oc.reads[k].end-r.due))
	}
	return visible
}

// clientView is what the load generator saw in the paced phase: the
// ack latency (due time → 200), the visibility tail and its own
// lateness. Ack latency is bimodal on a 2-vCPU box — most acks take
// about a millisecond, a varying share 3–6 ms inside the daemon — and
// the visibility tail of a sharded step waits for both vCPUs at once,
// so a busy spell on the host moves it by a third. Their percentiles
// move by more than any end-to-end bound from run to run, and are
// reported per layer rather than bounded.
func clientView(oc *outcome, lagP99 time.Duration) []namedValue {
	ingest := make([]float64, len(oc.paced))
	for i, r := range oc.paced {
		ingest[i] = ms(r.acked - r.due)
	}
	return []namedValue{
		{"visible_p95_ms", "ms", "lower", tailQuantile(visibleMS(oc), 0.95)},
		{"loadgen.ingest_p50_ms", "ms", "lower", quantile(ingest, 0.5)},
		{"loadgen.ingest_p95_ms", "ms", "lower", tailQuantile(ingest, 0.95)},
		{"loadgen.lag_p99_ms", "ms", "lower", ms(lagP99)},
		{"server.backlog_max_records", "count", "lower", float64(oc.backlogMax)},
	}
}

// perLayer computes the traced run's per-layer metrics.
func perLayer(rp *replay, q quality, stepShare float64) []namedValue {
	us := func(name string, qn float64) float64 { return quantile(rp.tr.durations(name), qn) / 1e3 }
	sum := func(name string) float64 {
		t := 0.0
		for _, d := range rp.tr.durations(name) {
			t += d
		}
		return t
	}
	recs, steps := float64(rp.records), float64(rp.steps)
	inst := 0.0
	for _, n := range rp.instances {
		inst += float64(n)
	}
	return []namedValue{
		{"stream.decode_us_per_request", "us", "lower", sum("stream.decode") / 1e3 / steps},
		{"ids.intern_ns_per_record", "ns", "lower", sum("ids.intern") / recs},
		{"wal.append_us_p50", "us", "lower", us("wal.append", 0.5)},
		{"wal.commit_ms_p99", "ms", "lower", us("wal.commit", 0.99) / 1e3},
		{"wal.bytes_per_record", "bytes", "lower", float64(rp.walBytes) / recs},
		{"core.step_us_per_record", "us", "lower", sum("core.step") / 1e3 / recs},
		{"core.step_ms_p99", "ms", "lower", us("core.step", 0.99) / 1e3},
		{"core.step_self_share", "ratio", "lower", stepShare},
		{"core.allocs_per_record", "count", "lower", float64(rp.mallocs) / recs},
		{"core.alloc_bytes_per_record", "bytes", "lower", float64(rp.allocB) / recs},
		{"core.instances_mean", "count", "lower", inst / steps},
		{"core.kills_per_step", "count", "lower", float64(rp.stats.ReductionKills) / steps},
		{"core.engine_bytes", "bytes", "lower", float64(rp.stats.Bytes)},
		{"core.solution_us_p50", "us", "lower", us("core.solution", 0.5)},
		{"influence.oracle_calls_per_record", "count", "lower", float64(rp.stepCalls) / recs},
		{"shard.skew", "ratio", "lower", rp.stats.ShardSkew},
		{"shard.merge_oracle_calls_per_publish", "count", "lower", float64(rp.solCalls) / steps},
		{"core.value_error", "ratio", "lower", q.valueErr},
		{"notify.diff_us_p50", "us", "lower", us("notify.diff", 0.5)},
		{"server.engine_stats_us_p50", "us", "lower", us("server.engine_stats", 0.5)},
		{"audit.run_ms", "ms", "lower", ms(rp.auditRun)},
		{"audit.oracle_calls", "count", "lower", float64(rp.auditRep.OracleCalls)},
		{"replay.records_per_sec", "rec/s", "higher", recs / ((sum("core.step") + sum("core.solution")) / 1e9)},
	}
}

// quantile is the linear-interpolation quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailQuantile estimates a tail quantile from samples in time order: the
// median, over consecutive windows that each leave at least five samples
// beyond the quantile, of the window's quantile. A run too short for two
// windows is one window. A host stall of a second (a descheduled vCPU, a
// slow flush) delays a burst of consecutive requests; the median keeps
// that burst from setting the whole run's figure.
func tailQuantile(xs []float64, q float64) float64 {
	n := max(1, int(float64(len(xs))*(1-q)/5))
	per := make([]float64, n)
	for i := range per {
		per[i] = quantile(xs[i*len(xs)/n:(i+1)*len(xs)/n], q)
	}
	return quantile(per, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuModel names the processor for the report header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
