package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"tdnstream/internal/graph"
	"tdnstream/internal/ids"
	"tdnstream/internal/influence"
	"tdnstream/internal/lifetime"
	"tdnstream/internal/stream"
)

// liveGraph rebuilds the stream's final graph G_t from the generated
// records alone: the daemon numbers one step per request and draws each
// record's lifetime from the stream's seeded assigner in arrival order,
// so the same draws here give the same graph. SieveADN keeps every
// interaction, so its graph is the addition-only one. Labels are
// interned in the daemon's order, so node ids agree too.
func liveGraph(p plan, requests int) (influence.Graph, *ids.Dict, []ids.NodeID, error) {
	dict := ids.NewDict()
	var nodes []ids.NodeID
	if p.w.algo == "sieveadn" {
		g := graph.NewADN()
		for _, x := range p.records[:p.recordsThrough(requests-1)] {
			g.AddEdge(dict.ID(label(x.Src)), dict.ID(label(x.Dst)))
		}
		g.Nodes(func(n ids.NodeID) { nodes = append(nodes, n) })
		return g, dict, nodes, nil
	}
	g := graph.NewTDN(0)
	assign := lifetime.NewGeometric(p.w.lifeP, p.w.lifeL, p.seed)
	for i := 0; i < requests; i++ {
		t := int64(i + 1)
		if err := g.AdvanceTo(t); err != nil {
			return nil, nil, nil, err
		}
		lo := i * p.w.perReq
		for _, x := range p.records[lo:p.recordsThrough(i)] {
			x = stream.Interaction{Src: dict.ID(label(x.Src)), Dst: dict.ID(label(x.Dst)), T: t}
			e := stream.Edge{Src: x.Src, Dst: x.Dst, T: t, Lifetime: assign.Assign(x)}
			if err := g.Add(e); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return g, dict, g.SortedNodes(), nil
}

// lazyGreedy is the reference: CELF greedy over every live node, with
// no budget. Ties break on the lower node id.
func lazyGreedy(o *influence.Oracle, nodes []ids.NodeID, k int) int {
	rs := influence.NewReachSet()
	h := make(celfHeap, 0, len(nodes))
	for _, v := range nodes {
		if g := o.MarginalGain(rs, v, false); g > 0 {
			h = append(h, celfCand{v: v, gain: g})
		}
	}
	heap.Init(&h)
	value := 0
	for picked := 0; picked < k && h.Len() > 0 && h[0].gain > 0; {
		if h[0].round != picked {
			h[0].gain, h[0].round = o.MarginalGain(rs, h[0].v, false), picked
			heap.Fix(&h, 0)
			continue
		}
		top := heap.Pop(&h).(celfCand)
		o.MarginalGain(rs, top.v, true)
		value += top.gain
		picked++
	}
	return value
}

type celfCand struct {
	v     ids.NodeID
	gain  int
	round int
}

type celfHeap []celfCand

func (h celfHeap) Len() int { return len(h) }
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}
func (h celfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x any)   { *h = append(*h, x.(celfCand)) }
func (h *celfHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// quality scores the served answer on the rebuilt graph.
type quality struct {
	exact     int     // exact spread of the served seeds on G_t
	reference int     // lazy-greedy spread on G_t
	spread    float64 // exact ÷ reference
	valueErr  float64 // |served value ÷ exact − 1|
}

// checkAnswer applies the correctness gate to a daemon run and scores
// its answer. Any failed check is returned as an error naming it.
func checkAnswer(p plan, out *outcome) (quality, error) {
	var q quality
	l := out.ledger
	switch {
	case l.Name != streamName:
		return q, fmt.Errorf("ledger: stream %q missing from /v1/streams", streamName)
	case l.Ingested != out.acked || l.Processed != out.acked:
		return q, fmt.Errorf("ledger: acked %d, ingested %d, processed %d", out.acked, l.Ingested, l.Processed)
	case l.StaleDropped+l.Failed+l.Superseded != 0:
		return q, fmt.Errorf("ledger: stale %d, failed %d, superseded %d (want 0)", l.StaleDropped, l.Failed, l.Superseded)
	case l.QueueDepth != 0:
		return q, fmt.Errorf("ledger: queue depth %d after settle", l.QueueDepth)
	case out.answer.Processed != out.acked:
		return q, fmt.Errorf("answer: /v1/topk processed %d, acked %d", out.answer.Processed, out.acked)
	case len(out.answer.Seeds) == 0 || len(out.answer.Seeds) > p.w.k:
		return q, fmt.Errorf("answer: %d seeds (want 1..%d)", len(out.answer.Seeds), p.w.k)
	}
	g, dict, nodes, err := liveGraph(p, len(p.bodies))
	if err != nil {
		return q, fmt.Errorf("rebuild live graph: %w", err)
	}
	seeds := make([]ids.NodeID, 0, len(out.answer.Seeds))
	for _, lbl := range out.answer.labels() {
		id, ok := dict.Lookup(lbl)
		if !ok {
			return q, fmt.Errorf("answer: seed %q was never ingested", lbl)
		}
		seeds = append(seeds, id)
	}
	o := influence.New(g, nil)
	q.exact = o.Spread(seeds...)
	q.reference = lazyGreedy(o, nodes, p.w.k)
	if q.reference == 0 {
		return q, fmt.Errorf("reference: empty live graph")
	}
	q.spread = float64(q.exact) / float64(q.reference)
	q.valueErr = abs(float64(out.answer.Value)/float64(q.exact) - 1)
	return q, nil
}

// digest fingerprints an answer: identical for every run of one seed.
func digest(p plan, a answer) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%s", p.w.name, p.seed, len(p.bodies), a.Processed, a.Value,
		strings.Join(a.labels(), ","))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
