package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// daemonBin is influtrackd built once for every test.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "daemonbench-test")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "influtrackd")
	build := exec.Command("go", "build", "-o", daemonBin, "./cmd/influtrackd")
	build.Dir = ".."
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("build influtrackd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyOptions runs a workload for about a second with one set-up.
func tinyOptions(t *testing.T, name string) options {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return options{root: t.TempDir(), daemonBin: daemonBin, workload: w, seed: 7, seconds: 1, setups: 1}
}

// children lists the live child processes of this test binary.
func children(t *testing.T) []string {
	t.Helper()
	procs, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []string
	for _, p := range procs {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := string(data)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(os.Getpid()) {
			out = append(out, p)
		}
	}
	return out
}

// assertClean checks that a run left no child process and no run directory.
func assertClean(t *testing.T, o options) {
	t.Helper()
	if c := children(t); len(c) > 0 {
		t.Errorf("orphaned children: %v", c)
	}
	runs, _ := os.ReadDir(filepath.Join(o.root, ".bench_build", "runs"))
	if len(runs) > 0 {
		t.Errorf("run directories left behind: %d", len(runs))
	}
}

// declaredMetric is a metric as BENCHMARK.json declares it.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func TestWorkloadsSmoke(t *testing.T) {
	var declared struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &declared); err != nil {
		t.Fatal(err)
	}
	for _, w := range declared.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(t, w.name)
			o.trace = traced
			res, err := run(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: result %+v", w.name, traced, res)
			}
			want := declared.EndToEnd
			if traced {
				want = declared.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s (%s) reported as %+v", w.name, traced, m.Name, m.Unit, got)
				}
			}
			assertClean(t, o)
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	var digests []string
	for i := 0; i < 2; i++ {
		o := tinyOptions(t, "durable-ingest")
		var out strings.Builder
		if _, err := run(context.Background(), o, &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "answer_digest=") {
				digests = append(digests, strings.Fields(line)[0])
			}
		}
	}
	if len(digests) != 2 || digests[0] != digests[1] {
		t.Fatalf("digests differ across runs of one seed: %v", digests)
	}
}

func TestOccupiedPortRefused(t *testing.T) {
	squatter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer squatter.Close()
	o := tinyOptions(t, "durable-ingest")
	o.port = squatter.Listener.Addr().(*net.TCPAddr).Port
	_, err := run(context.Background(), o, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "port occupied") {
		t.Fatalf("want a port-occupied error, got %v", err)
	}
	assertClean(t, o)
}

func TestDaemonEarlyExitNamed(t *testing.T) {
	o := tinyOptions(t, "checkin-histapprox")
	o.daemonArgs = []string{"-wal-fsync=bogus"}
	_, err := run(context.Background(), o, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "daemon exited early") {
		t.Fatalf("want a daemon-exited-early error, got %v", err)
	}
	assertClean(t, o)
}

func TestCancelMidRunCleansUp(t *testing.T) {
	o := tinyOptions(t, "checkin-histapprox")
	o.seconds = 30
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := run(ctx, o, io.Discard)
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	assertClean(t, o)
}
