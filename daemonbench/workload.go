package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"tdnstream/internal/datasets"
	"tdnstream/internal/ids"
	"tdnstream/internal/stream"
)

// workload is one traffic mix: the stream spec the daemon hosts, the
// generated dataset it is fed, and the request sizes and rates of each
// phase.
type workload struct {
	name    string
	dataset string // "brightkite" or "twitter-hk"

	// Stream spec, posted to /v1/streams as JSON.
	algo    string
	k       int
	eps     float64
	maxLife int // tracker L (reduction family only)
	shards  int
	lifeP   float64 // geometric lifetime forgetting probability
	lifeL   int     // geometric lifetime truncation
	fsync   string  // daemon -wal-fsync policy
	perReq  int     // records per ingest request (one tracker step each)
	warm    int     // warm-prefix records, processed before timing starts
	drainHz float64 // records/s the drain phase is sized by (HEAD drain rate)
	pacedHz float64 // records/s offered in the paced phase
}

// workloads lists every workload by name. The sizing rates were measured
// on a 2-vCPU Xeon (README.md has the baseline).
var workloads = []workload{
	{
		name: "checkin-histapprox", dataset: "brightkite",
		algo: "histapprox", k: 10, eps: 0.2, maxLife: 500,
		lifeP: 0.005, lifeL: 500, fsync: "interval",
		perReq: 50, warm: 1000, drainHz: 1100, pacedHz: 600,
	},
	{
		name: "retweet-sharded", dataset: "twitter-hk",
		algo: "histapprox", k: 10, eps: 0.2, maxLife: 100, shards: 2,
		lifeP: 0.05, lifeL: 100, fsync: "interval",
		perReq: 100, warm: 2000, drainHz: 4200, pacedHz: 1200,
	},
	{
		name: "durable-ingest", dataset: "brightkite",
		algo: "sieveadn", k: 10, eps: 0.1,
		lifeP: 0.005, lifeL: 500, fsync: "always",
		perReq: 20, warm: 4000, drainHz: 8000, pacedHz: 2000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// streamSpec is the body of POST /v1/streams. Arrival time mode makes
// every request exactly one tracker step, so the daemon's state is a
// pure function of the request sequence.
func (w workload) streamSpec(seed int64) map[string]any {
	return map[string]any{
		"name": streamName,
		"tracker": map[string]any{
			"Algo": w.algo, "K": w.k, "Eps": w.eps, "L": w.maxLife,
			"Shards": w.shards, "Seed": seed,
		},
		"lifetime": map[string]any{
			"Policy": "geometric", "P": w.lifeP, "L": w.lifeL, "Seed": seed,
		},
		"time_mode": "arrival",
	}
}

// streamName is the benchmark stream's name on the daemon.
const streamName = "bench"

// plan is a workload's request sequence for one seed and run length:
// warm prefix, drain phase and paced phase, in the order they are sent.
type plan struct {
	w       workload
	seed    int64
	records []stream.Interaction // generator output, one record per row
	bodies  [][]byte             // NDJSON request bodies
	nWarm   int                  // requests in the warm prefix
	nDrain  int                  // requests in the drain phase
	nPaced  int                  // requests in the paced phase
}

// newPlan sizes the phases from the run length: a third of it drains a
// backlog at the HEAD drain rate, the rest is paced at the fixed rate.
// The counts depend only on the workload and seconds, never on timing,
// so every run of one seed sends the same records.
func newPlan(w workload, seed int64, seconds float64) plan {
	reqs := func(recs float64) int { return max(1, int(math.Round(recs/float64(w.perReq)))) }
	p := plan{w: w, seed: seed}
	p.nWarm = reqs(float64(w.warm))
	p.nDrain = max(10*drainSegments, reqs(seconds/3*w.drainHz))
	p.nPaced = reqs(seconds * 2 / 3 * w.pacedHz)
	n := int64((p.nWarm + p.nDrain + p.nPaced) * w.perReq)
	switch w.dataset {
	case "brightkite":
		cfg := datasets.Brightkite(n)
		cfg.Seed = seed
		p.records = datasets.Checkin(cfg)
	case "twitter-hk":
		cfg := datasets.TwitterHK(n)
		cfg.Seed = seed
		p.records = datasets.Retweet(cfg)
	default:
		panic("daemonbench: no generator for dataset " + w.dataset)
	}
	var buf bytes.Buffer
	for i := 0; i < len(p.records); i += w.perReq {
		buf.Reset()
		for _, x := range p.records[i:min(i+w.perReq, len(p.records))] {
			buf.WriteString(`{"src":"`)
			buf.WriteString(label(x.Src))
			buf.WriteString(`","dst":"`)
			buf.WriteString(label(x.Dst))
			buf.WriteString("\"}\n")
		}
		p.bodies = append(p.bodies, bytes.Clone(buf.Bytes()))
	}
	return p
}

// label is the wire name of a generated node id.
func label(id ids.NodeID) string { return "n" + strconv.FormatUint(uint64(id), 10) }

// recordsThrough is the cumulative record count after request i.
func (p plan) recordsThrough(i int) uint64 {
	return uint64(min((i+1)*p.w.perReq, len(p.records)))
}
