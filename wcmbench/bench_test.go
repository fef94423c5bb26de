package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wcm3d"
)

// smokeDies keep every workload path to milliseconds.
var smokeDies = []string{"b11/1", "b12/2"}

// declared reads the metric names and units BENCHMARK.json promises for a
// trace mode.
func declared(t *testing.T, trace bool) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// runBench runs the benchmark in-process and decodes its record and result
// lines.
func runBench(t *testing.T, cfg config) (int, map[string]any, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("exit %d, want a record and a result line; stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	var rec struct {
		Record map[string]any `json:"record"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return code, rec.Record, res
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, trace: trace, root: "..", dies: smokeDies}
			if trace {
				cfg.spans = filepath.Join(t.TempDir(), "spans.json")
			}
			code, rec, res := runBench(t, cfg)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < len(smokeDies) {
				t.Fatalf("%s trace=%v: exit %d, result %+v, failures %v", w.name, trace, code, res, rec["failures"])
			}
			want := declared(t, trace)
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
			for _, key := range []string{"go_version", "gomaxprocs", "nproc", "cpu_model", "seed", "commit", "failed_frac"} {
				if _, ok := rec[key]; !ok {
					t.Errorf("%s trace=%v: record lacks %q", w.name, trace, key)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
}

// dropOneTSVWrapper removes the first inbound TSV from the plan, leaving it
// without a wrapper cell. The plan is copied, never edited in place.
func dropOneTSVWrapper(res *wcm3d.MinimizeResult) {
	asn := *res.Assignment
	asn.Control = slices.Clone(asn.Control)
	asn.Control[0].TSVs = asn.Control[0].TSVs[1:]
	if len(asn.Control[0].TSVs) == 0 {
		asn.Control = asn.Control[1:]
	}
	res.Assignment = &asn
}

func TestCorruptedPlanFailsTheRun(t *testing.T) {
	for _, name := range []string{"solve", "refine"} {
		cfg := config{workload: name, seed: 1, root: "..", dies: smokeDies, mutate: dropOneTSVWrapper}
		code, rec, res := runBench(t, cfg)
		if code == 0 || res.Correct || res.Failed != len(smokeDies) {
			t.Errorf("%s: exit %d, result %+v; want a non-zero exit and every die failed", name, code, res)
		}
		if frac, _ := rec["failed_frac"].(float64); frac != 1 {
			t.Errorf("%s: failed_frac %v, want 1", name, rec["failed_frac"])
		}
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 20)
	for i := range v {
		v[i] = float64(20 - i)
	}
	pct, val, ok := tail(v)
	if !ok || pct != 50 || val != 10 {
		t.Errorf("tail of 1..20 = p%v %v %v, want p50 10 true", pct, val, ok)
	}
	if _, _, ok := tail(v[:10]); ok {
		t.Error("tail of 10 samples reported a percentile")
	}
}
