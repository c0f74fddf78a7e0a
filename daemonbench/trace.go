package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tdnstream"
	"tdnstream/internal/audit"
	"tdnstream/internal/ids"
	"tdnstream/internal/notify"
	"tdnstream/internal/stream"
	"tdnstream/internal/wal"
)

// span is one timed call into a layer. Request spans have parent −1;
// every other span is a child of its request's span.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

// tracer keeps spans in memory; they are written out after the replay.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.epoch) }

// replay holds the traced in-process replay's counts and answer.
type replay struct {
	tr        *tracer
	records   int
	steps     int
	walBytes  int64
	mallocs   uint64
	allocB    uint64
	stepCalls uint64 // oracle calls inside ObserveBatch
	solCalls  uint64 // oracle calls inside Solution (the shard merge)
	instances []int  // EngineStats.Instances after each step
	stats     tdnstream.EngineStats
	auditRun  time.Duration
	auditRep  *audit.Report
	labels    []string // final seeds, sorted
	value     int
}

// runReplay feeds the workload's exact request bodies through each
// layer's public functions in the daemon's pipeline order, on one
// goroutine, timing every call.
func runReplay(p plan, walDir string) (*replay, error) {
	w := p.w
	spec := tdnstream.TrackerSpec{Algo: w.algo, K: w.k, Eps: w.eps, L: w.maxLife, Shards: w.shards, Seed: p.seed}
	tracker, err := spec.New()
	if err != nil {
		return nil, err
	}
	assign, err := tdnstream.LifetimeSpec{Policy: "geometric", P: w.lifeP, L: w.lifeL, Seed: p.seed}.New()
	if err != nil {
		return nil, err
	}
	pipe := tdnstream.NewPipeline(tracker, assign)
	log, err := wal.Open(walDir, wal.Options{Fsync: w.fsync})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	dict := ids.NewDict()
	differ := &notify.Differ{KeyframeEvery: 64}
	r := &replay{tr: &tracer{epoch: time.Now()}}
	tr := r.tr
	type raw struct{ src, dst string }
	var raws []raw
	var walBuf []byte
	walDictLen := 0
	var ms runtime.MemStats

	for i, body := range p.bodies {
		req := tr.begin("request", -1, i)

		sp := tr.begin("stream.decode", req, i)
		rr := stream.NewNDJSONReader(bytes.NewReader(body))
		raws = raws[:0]
		for {
			src, dst, _, err := rr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			raws = append(raws, raw{src, dst})
		}
		tr.end(sp)

		t := int64(i + 1)
		sp = tr.begin("ids.intern", req, i)
		rows := make([]tdnstream.Interaction, len(raws))
		for j, x := range raws {
			rows[j] = tdnstream.Interaction{Src: dict.ID(x.src), Dst: dict.ID(x.dst), T: t}
		}
		tr.end(sp)

		sp = tr.begin("wal.append", req, i)
		labels := make([]string, 0, dict.Len()-walDictLen)
		for id := walDictLen; id < dict.Len(); id++ {
			labels = append(labels, dict.Name(ids.NodeID(id)))
		}
		rec := wal.Record{DictBase: walDictLen, Labels: labels, Rows: rows}
		walBuf = rec.AppendEncode(walBuf[:0])
		_, tok, err := log.Append(walBuf)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		walDictLen = dict.Len()
		sp = tr.begin("wal.commit", req, i)
		err = log.Commit(tok)
		tr.end(sp)
		if err != nil {
			return nil, err
		}

		runtime.ReadMemStats(&ms)
		mallocs, allocB, calls := ms.Mallocs, ms.TotalAlloc, tracker.Calls().Value()
		sp = tr.begin("core.step", req, i)
		err = pipe.ObserveBatch(t, rows)
		tr.end(sp)
		runtime.ReadMemStats(&ms)
		r.mallocs += ms.Mallocs - mallocs
		r.allocB += ms.TotalAlloc - allocB
		r.stepCalls += tracker.Calls().Value() - calls
		if err != nil {
			return nil, err
		}
		r.records += len(rows)
		r.steps++

		calls = tracker.Calls().Value()
		sp = tr.begin("core.solution", req, i)
		sol := tracker.Solution()
		tr.end(sp)
		r.solCalls += tracker.Calls().Value() - calls

		sp = tr.begin("notify.diff", req, i)
		topk := notify.TopK{T: t, Value: sol.Value, Entries: make([]notify.Entry, len(sol.Seeds))}
		for j, id := range sol.Seeds {
			topk.Entries[j] = notify.Entry{ID: id, Label: dict.Name(id)}
		}
		differ.Diff(topk)
		tr.end(sp)

		sp = tr.begin("server.engine_stats", req, i)
		r.stats, _ = tdnstream.EngineStatsOf(tracker)
		tr.end(sp)
		r.instances = append(r.instances, r.stats.Instances)

		tr.end(req)
	}

	start := time.Now()
	r.auditRep, _, err = audit.New(audit.Config{K: w.k}).Run(tracker)
	r.auditRun = time.Since(start)
	if err != nil {
		return nil, err
	}
	r.walBytes = log.Stats().Bytes
	sol := tracker.Solution()
	r.value = sol.Value
	for _, id := range sol.Seeds {
		r.labels = append(r.labels, dict.Name(id))
	}
	sort.Strings(r.labels)
	return r, nil
}

// selfTimes sums each span name's self time: a request span's duration
// minus its children's, a child's whole duration (children are leaves).
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	self := map[string]time.Duration{}
	var total time.Duration
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		} else {
			total += d
		}
	}
	return self, total
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// matchDaemon asserts the replay reached the daemon's answer.
func (r *replay) matchDaemon(a answer) error {
	got := a.labels()
	if fmt.Sprint(got) != fmt.Sprint(r.labels) || a.Value != r.value {
		return fmt.Errorf("replay mismatch: daemon value %d seeds %v, library value %d seeds %v",
			a.Value, got, r.value, r.labels)
	}
	return nil
}
