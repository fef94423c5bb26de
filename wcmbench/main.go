// Command wcmbench is wcm3d's benchmark. It runs one workload, a closed loop
// of die operations through the public entry points (wcm3d.PrepareDie,
// wcm3d.MinimizeWith, wcm3d.VerifyPlan, wcm3d.Refine), checks every output,
// and prints as its last line one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics of a traced run (-trace 1). Build and
// run it through run.sh; README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"wcm3d"
)

// setups is how many times a run builds its set-up; setup_s is the median.
const setups = 3

type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"worst_die_s", "s"},
	{"cells", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a -trace 1 run reports. Times are span self
// times summed over one pass, counts are per pass, and each figure is the
// median over the traced passes. A layer the workload's passes never call
// reads 0.
var perLayer = []metricDef{
	{"netgen.generate_s", "s"}, {"netgen.gates", "count"}, {"netgen.allocs", "count"},
	{"place.place_s", "s"}, {"place.repeaters_s", "s"}, {"place.repeaters_added", "count"}, {"place.allocs", "count"},
	{"scan.functional_mode_s", "s"}, {"scan.allocs", "count"},
	{"sta.analyze_s", "s"}, {"sta.analyses", "count"}, {"sta.allocs", "count"},
	{"faults.enumerate_s", "s"}, {"faults.count", "count"}, {"faults.allocs", "count"},
	{"netlist.cones_s", "s"}, {"netlist.allocs", "count"},
	{"wcm.run_s", "s"}, {"wcm.edges_per_s", "1/s"}, {"wcm.share_model_s", "s"},
	{"wcm.nodes", "count"}, {"wcm.edges", "count"}, {"wcm.overlap_edges", "count"},
	{"wcm.filtered_tsvs", "count"}, {"wcm.merges", "count"}, {"wcm.edge_deletes", "count"},
	{"wcm.cliques", "count"}, {"wcm.edge_yield", "ratio"}, {"wcm.node_pairs", "count"}, {"wcm.allocs", "count"},
	{"refine.run_s", "s"}, {"refine.steps_per_s", "1/s"},
	{"refine.local.steps", "count"}, {"refine.anneal.steps", "count"}, {"refine.bnb.steps", "count"}, {"refine.lns.steps", "count"},
	{"refine.proposed", "count"}, {"refine.admitted", "count"}, {"refine.rejected", "count"}, {"refine.stale", "count"},
	{"refine.admit_ratio", "ratio"}, {"refine.cells_saved", "count"}, {"refine.verify_calls", "count"},
	{"refine.wins.local", "count"}, {"refine.wins.anneal", "count"}, {"refine.wins.bnb", "count"}, {"refine.wins.lns", "count"},
	{"refine.allocs", "count"},
	{"verify.plan_s", "s"}, {"verify.allocs", "count"},
	{"trace.untraced_pass_s", "s"}, {"trace.traced_pass_s", "s"}, {"trace.overhead_s", "s"}, {"trace.spans", "count"},
}

// refineStrategies are the portfolio's strategies, for refine.steps_per_s.
var refineStrategies = []string{"local", "anneal", "bnb", "lns"}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// root is the repository checkout (results/table3.txt, commit).
	root string
	// spans is where a traced run writes its spans ("" writes none).
	spans string
	// dies overrides the workload's die list.
	dies []string
	// mutate, when set, edits every plan before its checks run.
	mutate func(*wcm3d.MinimizeResult)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcmbench:", err)
		os.Exit(2)
	}
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

func parseFlags(args []string) (config, error) {
	fset := flag.NewFlagSet("wcmbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload: prepare, solve or refine")
	seed := fset.Int64("seed", 1, "die generation and refinement seed")
	seconds := fset.Int("seconds", 20, "measured duration of the run")
	trace := fset.Int("trace", 0, "1 alternates untraced and traced passes and reports per-layer metrics")
	root := fset.String("root", ".", "repository checkout")
	spans := fset.String("spans", "", "file a traced run writes its spans to")
	if err := fset.Parse(args); err != nil {
		return config{}, err
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		return config{}, fmt.Errorf("-seconds must be >= 0 and -trace 0 or 1")
	}
	return config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root, spans: *spans,
	}, nil
}

// runner holds one run's state: the set-up the workload built and what the
// passes have checked so far.
type runner struct {
	cfg      config
	w        workload
	profiles []wcm3d.Profile
	dies     []*wcm3d.Die
	opts     []wcm3d.MinimizeOptions
	greedy   []*wcm3d.MinimizeResult
	// prepared keeps the last untraced prepare output per die in a traced
	// run, for the replay to be checked against.
	prepared []*wcm3d.Die
	// want is the seed-1 ours/tight cell count per die (nil at other seeds).
	want map[string]int
	// sigs holds each die's first-pass signature; later passes must match.
	sigs      []string
	attempted int
	failures  []string
}

type passStat struct {
	dur, worst time.Duration
	cells      int
	dieDur     []time.Duration
}

// run executes one benchmark run and returns the process exit code: 0 when
// every output checked out, 1 when any check failed (the result line is
// still printed), 2 when the run could not start.
func run(cfg config, stdout, stderr io.Writer) int {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "wcmbench: unknown workload %q (prepare, solve, refine)\n", cfg.workload)
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	r := &runner{cfg: cfg, w: w}
	names := w.dies
	if cfg.dies != nil {
		names = cfg.dies
	}
	for _, name := range names {
		p, err := wcm3d.ProfileByName(name)
		if err != nil {
			fmt.Fprintln(stderr, "wcmbench:", err)
			return 2
		}
		r.profiles = append(r.profiles, p)
	}
	r.prepared = make([]*wcm3d.Die, len(r.profiles))
	r.sigs = make([]string, len(r.profiles))
	if cfg.seed == 1 {
		want, err := table3Cells(cfg.root)
		if err != nil {
			fmt.Fprintln(stderr, "wcmbench:", err)
			return 2
		}
		r.want = want
	}

	setupS := make([]float64, setups)
	for k := range setupS {
		// Drop the previous set-up first, so two never share the heap.
		r.dies, r.opts, r.greedy = nil, nil, nil
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			fmt.Fprintf(stderr, "wcmbench: %s set-up: %v\n", w.name, err)
			return 2
		}
		setupS[k] = time.Since(t0).Seconds()
	}
	runtime.GC()

	var untraced, traced []passStat
	var metrics map[string]metric
	if cfg.trace {
		// Untraced and traced passes alternate, so a slow spell of the
		// machine weighs on both sides of the tracing overhead alike.
		tr := newTracer()
		for start := time.Now(); len(traced) == 0 || time.Since(start) < cfg.seconds; {
			untraced = append(untraced, r.pass(nil))
			traced = append(traced, r.pass(tr))
		}
		if cfg.spans != "" {
			if err := tr.write(cfg.spans); err != nil {
				fmt.Fprintln(stderr, "wcmbench: writing spans:", err)
				return 2
			}
		}
		metrics = layerMetrics(tr, untraced, traced)
	} else {
		untraced = r.passes(cfg.seconds)
		metrics = endToEndMetrics(setupS, untraced)
	}

	failed := len(r.failures)
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "wcmbench: FAIL", f)
	}
	rec := r.record(setupS, untraced, traced)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintln(stderr, "wcmbench:", err)
		return 2
	}
	if err := enc.Encode(result{Correct: failed == 0, Attempted: r.attempted, Failed: failed, Metrics: metrics}); err != nil {
		fmt.Fprintln(stderr, "wcmbench:", err)
		return 2
	}
	if failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passes runs untraced passes until budget has elapsed, at least one.
func (r *runner) passes(budget time.Duration) []passStat {
	var out []passStat
	for start := time.Now(); len(out) == 0 || time.Since(start) < budget; {
		out = append(out, r.pass(nil))
	}
	return out
}

// pass runs the workload's operation on every die in turn. A die whose
// operation errors, fails a check, or whose counts differ from its first
// pass counts as one failed operation.
func (r *runner) pass(tr *tracer) passStat {
	if tr != nil {
		tr.startPass()
	}
	ps := passStat{dieDur: make([]time.Duration, len(r.profiles))}
	// Every pass starts from the same collected heap, so the collections
	// inside it fall at the same points from pass to pass.
	runtime.GC()
	t0 := time.Now()
	for i, p := range r.profiles {
		tr.setDie(p.Name())
		r.attempted++
		var res dieResult
		d0 := time.Now()
		err := tr.do("die."+r.w.name, func() (err error) {
			res, err = r.w.op(r, i, tr)
			return err
		})
		ps.dieDur[i] = time.Since(d0)
		ps.worst = max(ps.worst, ps.dieDur[i])
		if err == nil {
			if r.sigs[i] == "" {
				r.sigs[i] = res.sig
			} else if res.sig != r.sigs[i] {
				err = fmt.Errorf("counts differ from the first pass:\n  first %s\n  now   %s", r.sigs[i], res.sig)
			}
		}
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("%s %s: %v", r.w.name, p.Name(), err))
			continue
		}
		ps.cells += res.cells
	}
	ps.dur = time.Since(t0)
	return ps
}

func endToEndMetrics(setupS []float64, passes []passStat) map[string]metric {
	worst := make([]float64, len(passes))
	for i, p := range passes {
		worst[i] = p.worst.Seconds()
	}
	vals := map[string]float64{
		"setup_s":     median(setupS),
		"pass_s":      median(passSeconds(passes)),
		"worst_die_s": median(worst),
		"cells":       float64(passes[len(passes)-1].cells),
		"peak_rss_mb": peakRSSMB(),
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// layerMetrics reports the traced passes' per-layer figures and the tracing
// overhead against the untraced passes of the same run.
func layerMetrics(tr *tracer, untraced, traced []passStat) map[string]metric {
	perPass := make([]map[string]float64, len(traced))
	for p := range traced {
		m := tr.passMetrics(p)
		steps := 0.0
		for _, s := range refineStrategies {
			steps += m["refine."+s+".steps"]
		}
		m["wcm.edges_per_s"] = ratio(m["wcm.edges"], m["wcm.run_s"])
		m["wcm.edge_yield"] = ratio(m["wcm.edges"], m["wcm.node_pairs"])
		m["refine.steps_per_s"] = ratio(steps, m["refine.run_s"])
		m["refine.admit_ratio"] = ratio(m["refine.admitted"], m["refine.proposed"])
		perPass[p] = m
	}
	un, tp := median(passSeconds(untraced)), median(passSeconds(traced))
	out := map[string]metric{}
	for _, d := range perLayer {
		vals := make([]float64, len(perPass))
		for p, m := range perPass {
			vals[p] = m[d.name]
		}
		out[d.name] = metric{median(vals), d.unit}
	}
	out["trace.untraced_pass_s"] = metric{un, "s"}
	out["trace.traced_pass_s"] = metric{tp, "s"}
	out["trace.overhead_s"] = metric{tp - un, "s"}
	out["trace.spans"] = metric{float64(len(tr.spans)) / float64(len(traced)), "count"}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func passSeconds(ps []passStat) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.dur.Seconds()
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail returns the highest percentile of v that has at least ten samples
// above it, or ok=false when v has fewer than eleven samples.
func tail(v []float64) (pct, value float64, ok bool) {
	if len(v) < 11 {
		return 0, 0, false
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	k := len(s) - 11
	return 100 * float64(k+1) / float64(len(s)), s[k], true
}

// peakRSSMB is the process's peak resident set (Linux reports ru_maxrss in
// KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// record is the run's context: the machine, the code, and the figures the
// result line has no room for.
func (r *runner) record(setupS []float64, untraced, traced []passStat) map[string]any {
	dieMedian := map[string]float64{}
	for i, p := range r.profiles {
		v := make([]float64, len(untraced))
		for k, ps := range untraced {
			v[k] = ps.dieDur[i].Seconds()
		}
		dieMedian[p.Name()] = median(v)
	}
	passS := passSeconds(untraced)
	rec := map[string]any{
		"workload":        r.w.name,
		"seed":            r.cfg.seed,
		"seconds":         r.cfg.seconds.Seconds(),
		"trace":           r.cfg.trace,
		"go_version":      runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"cpu_model":       cpuModel(),
		"commit":          commit(r.cfg.root),
		"source_sha256":   sourceDigest(r.cfg.root),
		"setup_s_samples": setupS,
		"pass_n":          len(passS),
		"pass_median_s":   median(passS),
		"pass_s_samples":  passS,
		"die_median_s":    dieMedian,
		"attempted":       r.attempted,
		"failed":          len(r.failures),
		"failed_frac":     float64(len(r.failures)) / float64(r.attempted),
		"failures":        r.failures,
	}
	if pct, v, ok := tail(passS); ok {
		rec["pass_tail"] = map[string]float64{"percentile": pct, "s": v}
	}
	if len(traced) > 0 {
		rec["traced_pass_n"] = len(traced)
	}
	return rec
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads HEAD from the checkout's .git directory; a checkout that is
// not a git repository reports "unknown" and is identified by
// source_sha256 instead.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// hidden directories (.git, .bench_build).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
