package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Phase budgets. Each expiry fails the run with a named reason.
const (
	healthBudget = 20 * time.Second
	warmBudget   = 60 * time.Second
	drainBudget  = 80 * time.Second
	settleBudget = 30 * time.Second
	// drainBacklogReqs bounds the drain phase's backlog, in requests: far
	// below the daemon's 256-chunk queue, so it never answers 429, and
	// deep enough that the queue never runs dry between refills.
	drainBacklogReqs = 32
	// drainSegments splits the drain window; drain_records_per_sec is
	// the median of the segments' rates.
	drainSegments = 5
	// readerEvery is the mean /v1/topk reader cadence.
	readerEvery = 2 * time.Millisecond
	// maxLagP99 is the generator lateness beyond which a paced phase is
	// invalid: the offered rate was not the stated one.
	maxLagP99 = 250 * time.Millisecond
)

// session drives one workload against influtrackd children over two
// HTTP connections: the ingest client and the /v1/topk reader.
type session struct {
	opts   options
	plan   plan
	epoch  time.Time
	ingest *http.Client
	reader *http.Client
	runDir string

	mu   sync.Mutex
	live *daemon // the daemon the cleanup path must kill

	attempted int // ingest requests sent
	failed    int // ingest requests answered non-200 or lost in transport
}

func newSession(opts options, p plan, runDir string) *session {
	client := func() *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return &session{opts: opts, plan: p, epoch: time.Now(), ingest: client(), reader: client(), runDir: runDir}
}

// since is the time elapsed since the session began.
func (s *session) since() time.Duration { return time.Since(s.epoch) }

// close kills the live daemon, if any, and removes its run directory.
func (s *session) close() {
	s.mu.Lock()
	d := s.live
	s.live = nil
	s.mu.Unlock()
	if d != nil {
		d.stop()
	}
	s.ingest.CloseIdleConnections()
	s.reader.CloseIdleConnections()
}

// pacedReq is one paced-phase request's timeline, relative to the epoch.
type pacedReq struct {
	due, sent, acked time.Duration
	through          uint64 // cumulative records once this request is applied
}

// read is one /v1/topk answer.
type read struct {
	start, end time.Duration
	processed  uint64
}

// answer is the daemon's final /v1/topk.
type answer struct {
	Processed uint64 `json:"processed"`
	Value     int    `json:"value"`
	Seeds     []struct {
		Label string `json:"label"`
	} `json:"seeds"`
}

func (a answer) labels() []string {
	out := make([]string, len(a.Seeds))
	for i, s := range a.Seeds {
		out[i] = s.Label
	}
	sort.Strings(out)
	return out
}

// ledger is the stream's accounting from /v1/streams.
type ledger struct {
	Name         string `json:"name"`
	QueueDepth   int    `json:"queue_depth"`
	Ingested     uint64 `json:"ingested"`
	Processed    uint64 `json:"processed"`
	StaleDropped uint64 `json:"stale_dropped"`
	Failed       uint64 `json:"failed"`
	Superseded   uint64 `json:"superseded"`
}

// outcome is everything one daemon run measured.
type outcome struct {
	setups       []time.Duration
	drainRates   []float64 // records/s over each drain segment
	paced        []pacedReq
	reads        []read
	cpuTicks     int64
	pacedRecords uint64
	rssMB        float64
	backlogMax   int64
	acked        uint64
	answer       answer
	ledger       ledger
	stealShare   float64 // share of host CPU time stolen by the hypervisor
}

// runDaemon performs setups (keeping the last daemon), then the drain,
// paced and settle phases, and reads the final answer and ledger.
func (s *session) runDaemon(ctx context.Context) (*outcome, error) {
	out := &outcome{}
	steal0, total0 := hostSteal()
	defer func() {
		steal1, total1 := hostSteal()
		if total1 > total0 {
			out.stealShare = float64(steal1-steal0) / float64(total1-total0)
		}
	}()
	var d *daemon
	for i := 0; i < s.opts.setups; i++ {
		var took time.Duration
		var err error
		d, took, err = s.setup(ctx, i)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, took)
		if i < s.opts.setups-1 {
			s.close()
		}
	}
	p := s.plan
	warmEnd := p.recordsThrough(p.nWarm - 1)
	out.acked = warmEnd

	rd := &topkReader{s: s, url: d.base + "/v1/topk?stream=" + streamName, done: make(chan struct{})}
	rd.sent.Store(warmEnd)
	rd.processed.Store(warmEnd)
	readCtx, stopReader := context.WithCancel(ctx)
	go rd.run(readCtx, readerEvery)
	stop := func() error {
		stopReader()
		<-rd.done
		return rd.err
	}
	fail := func(err error) (*outcome, error) {
		stop()
		return nil, err
	}

	// Drain: keep a bounded backlog so the queue never runs empty.
	limit := uint64(drainBacklogReqs * p.w.perReq)
	drainStart := s.since()
	deadline := time.Now().Add(drainBudget)
	for i := p.nWarm; i < p.nWarm+p.nDrain; i++ {
		if next := p.recordsThrough(i); next > limit {
			if err := rd.waitFor(ctx, next-limit, deadline, "drain"); err != nil {
				return fail(err)
			}
		}
		rd.sent.Store(p.recordsThrough(i))
		if err := s.post(ctx, i); err != nil {
			return fail(err)
		}
		out.acked = p.recordsThrough(i)
	}
	drainEnd := p.recordsThrough(p.nWarm + p.nDrain - 1)
	if err := rd.waitFor(ctx, drainEnd, deadline, "drain"); err != nil {
		return fail(err)
	}
	// The drain rate is taken per segment of the window, so a transient
	// stall on the host costs one segment rather than the whole figure.
	seg := (drainEnd - warmEnd) / drainSegments
	prev := drainStart
	for k := uint64(1); k <= drainSegments; k++ {
		at := rd.firstCovering(warmEnd + k*seg).end
		out.drainRates = append(out.drainRates, float64(seg)/(at-prev).Seconds())
		prev = at
	}

	// Paced: an open loop at a fixed absolute rate; each request is
	// timed from its due time, so a stall charges every request it delays.
	cpu0, err := cpuTicks(d.pid)
	if err != nil {
		return fail(fmt.Errorf("read daemon cpu: %w", err))
	}
	rd.trackBacklog.Store(true)
	interval := time.Duration(float64(p.w.perReq) / p.w.pacedHz * float64(time.Second))
	t0 := s.since() + 5*time.Millisecond
	first := p.nWarm + p.nDrain
	for j := 0; j < p.nPaced; j++ {
		i := first + j
		due := t0 + time.Duration(j)*interval
		if err := s.sleepUntil(ctx, due); err != nil {
			return fail(err)
		}
		req := pacedReq{due: due, sent: s.since(), through: p.recordsThrough(i)}
		rd.sent.Store(req.through)
		if err := s.post(ctx, i); err != nil {
			return fail(err)
		}
		req.acked = s.since()
		out.paced = append(out.paced, req)
		out.acked = req.through
	}

	// Settle: every acked record must become visible.
	if err := rd.waitFor(ctx, out.acked, time.Now().Add(settleBudget), "settle"); err != nil {
		return fail(err)
	}
	cpu1, err := cpuTicks(d.pid)
	if err != nil {
		return fail(fmt.Errorf("read daemon cpu: %w", err))
	}
	if err := stop(); err != nil {
		return nil, err
	}
	out.cpuTicks = cpu1 - cpu0
	out.pacedRecords = out.acked - drainEnd
	out.reads = rd.reads // the reader has exited
	out.backlogMax = rd.backlogMax

	if err := s.getJSON(ctx, d.base+"/v1/topk?stream="+streamName, &out.answer); err != nil {
		return nil, err
	}
	// The worker publishes a chunk's processed count before it finishes
	// the chunk's publish work, so the queue may still report that chunk
	// for a moment.
	deadline = time.Now().Add(settleBudget)
	for {
		var list struct {
			Streams []ledger `json:"streams"`
		}
		if err := s.getJSON(ctx, d.base+"/v1/streams", &list); err != nil {
			return nil, err
		}
		for _, l := range list.Streams {
			if l.Name == streamName {
				out.ledger = l
			}
		}
		if out.ledger.QueueDepth == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if out.rssMB, err = peakRSSMB(d.pid); err != nil {
		return nil, fmt.Errorf("read daemon rss: %w", err)
	}
	return out, nil
}

// setup spawns daemon i, creates the stream and feeds the warm prefix,
// returning once the prefix is processed.
func (s *session) setup(ctx context.Context, i int) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(s.opts.daemonBin, filepath.Join(s.runDir, "d"+strconv.Itoa(i)),
		s.opts.port, s.plan.w.fsync, s.opts.daemonArgs)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	s.live = d
	s.mu.Unlock()
	if err := d.waitHealthy(ctx, s.reader, healthBudget); err != nil {
		return nil, 0, err
	}
	spec, _ := json.Marshal(s.plan.w.streamSpec(s.plan.seed))
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/streams", bytes.NewReader(spec))
	resp, err := s.reader.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("create stream: %w", err)
	}
	drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return nil, 0, fmt.Errorf("create stream: %s", resp.Status)
	}
	base := d.base
	for j := 0; j < s.plan.nWarm; j++ {
		if err := s.postTo(ctx, base, j); err != nil {
			return nil, 0, err
		}
	}
	want := s.plan.recordsThrough(s.plan.nWarm - 1)
	deadline := time.Now().Add(warmBudget)
	for {
		var a answer
		if err := s.getJSON(ctx, base+"/v1/topk?stream="+streamName, &a); err != nil {
			return nil, 0, err
		}
		if a.Processed >= want {
			break
		}
		if !d.alive() {
			return nil, 0, d.exitError()
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("setup: warm prefix unprocessed: backlog %d after %v", want-a.Processed, warmBudget)
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

// spinWindow is how long before a due time the generator stops sleeping
// and polls the clock: timer wake-ups run up to a millisecond late, which
// would otherwise be charged to every request as generator lateness.
const spinWindow = time.Millisecond

// sleepUntil returns at the session time due.
func (s *session) sleepUntil(ctx context.Context, due time.Duration) error {
	if wait := due - s.since() - spinWindow; wait > 0 {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for s.since() < due {
		runtime.Gosched()
	}
	return nil
}

// post sends request i to the live daemon.
func (s *session) post(ctx context.Context, i int) error {
	s.mu.Lock()
	base := s.live.base
	s.mu.Unlock()
	return s.postTo(ctx, base, i)
}

func (s *session) postTo(ctx context.Context, base string, i int) error {
	s.attempted++
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/ingest?stream="+streamName, bytes.NewReader(s.plan.bodies[i]))
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := s.ingest.Do(req)
	if err != nil {
		s.failed++
		return fmt.Errorf("ingest request %d: %w", i, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.failed++
		return fmt.Errorf("ingest request %d answered %s: %s", i, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

func (s *session) getJSON(ctx context.Context, url string, v any) error {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := s.reader.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// topkReader polls /v1/topk on a fixed cadence: the dashboard traffic,
// and the benchmark's view of when records become visible.
type topkReader struct {
	s   *session
	url string

	sent         atomic.Uint64 // records handed to the ingest client so far
	processed    atomic.Uint64 // latest processed count read
	trackBacklog atomic.Bool   // record sent−processed from now on

	mu         sync.Mutex
	reads      []read
	backlogMax int64

	done chan struct{} // closed when run returns
	err  error         // why run stopped early; valid once done is closed
}

func (r *topkReader) run(ctx context.Context, every time.Duration) {
	defer close(r.done)
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("reader panic: %v", v)
		}
	}()
	// The cadence is jittered uniformly over [every/2, 3·every/2): a fixed
	// cadence that divides the paced interval would lock the reads to one
	// phase of each request and bias the visibility times of a whole run.
	jitter := rand.New(rand.NewSource(time.Now().UnixNano()))
	next := time.Now()
	for {
		next = next.Add(every/2 + time.Duration(jitter.Int63n(int64(every))))
		if wait := time.Until(next); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		} else if -wait > every {
			next = time.Now() // fell behind: resume the cadence from now
		}
		start := r.s.since()
		var a struct {
			Processed uint64 `json:"processed"`
		}
		if err := r.s.getJSON(ctx, r.url, &a); err != nil {
			if ctx.Err() == nil {
				r.err = fmt.Errorf("topk read: %w", err)
			}
			return
		}
		r.mu.Lock()
		r.reads = append(r.reads, read{start: start, end: r.s.since(), processed: a.Processed})
		if r.trackBacklog.Load() {
			r.backlogMax = max(r.backlogMax, int64(r.sent.Load())-int64(a.Processed))
		}
		r.mu.Unlock()
		r.processed.Store(a.Processed)
	}
}

// waitFor blocks until the reader has seen processed ≥ target, failing
// with the phase's name once the deadline passes or the reader stops.
func (r *topkReader) waitFor(ctx context.Context, target uint64, deadline time.Time, phase string) error {
	began := time.Now()
	for r.processed.Load() < target {
		select {
		case <-r.done:
			if r.err != nil {
				return fmt.Errorf("%s: %w", phase, r.err)
			}
			return fmt.Errorf("%s: %w", phase, ctx.Err())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: unsettled: backlog %d after %.1fs", phase,
				target-r.processed.Load(), time.Since(began).Seconds())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// firstCovering is the first read that saw processed ≥ target; the
// caller has waited for one to exist.
func (r *topkReader) firstCovering(target uint64) read {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.reads), func(i int) bool { return r.reads[i].processed >= target })
	return r.reads[i]
}
