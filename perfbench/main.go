// Command perfbench is the repository's benchmark. It runs one named
// workload (scan, browse or lossy) for a fixed number of seconds and
// prints the end-to-end metrics, or with -trace 1 the per-layer
// breakdown, as the last line of standard output:
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
//
// Every measured repetition runs in a fresh child process, as a user's
// campaign does, so process-global caches start cold in each one and
// the child's peak RSS is the repetition's own. See perfbench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	outDir     = ".bench_build" // build outputs, results and traces, relative to the checkout
	setupReps  = 11             // population builds per run; setup_s is their median
	minReps    = 3              // measured repetitions even when -seconds is short
	minTraced  = 2              // traced (and untraced) repetitions in a traced run
	runTimeout = 170 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	role     string // "" (driver), or a child role: setup, rep, golden
	rep      int
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: scan, browse or lossy")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds of measured repetitions")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.role, "role", "", "internal: child process role")
	flag.IntVar(&o.rep, "rep", 0, "internal: repetition index")
	flag.Parse()
	o.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	if o.role != "" {
		err = child(o)
	} else {
		err = drive(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childResult is what a child process prints as its one line of output.
type childResult struct {
	SetupS    []float64          `json:"setup_s,omitempty"`
	BuildS    []float64          `json:"build_s,omitempty"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	Conns     uint64             `json:"conns"`
	Failed    uint64             `json:"failed"`
	Digest    string             `json:"digest"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Traced    bool               `json:"traced,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

func child(o options) error {
	workers := runtime.NumCPU()
	var w *workload
	var err error
	if o.role == "golden" {
		w = goldenWorkload(workers)
	} else if w, err = newWorkload(o.workload, o.seed, workers); err != nil {
		return err
	}
	var res childResult
	switch o.role {
	case "setup":
		for i := 0; i < setupReps; i++ {
			build, total, err := w.setup()
			if err != nil {
				return err
			}
			res.BuildS = append(res.BuildS, build.Seconds())
			res.SetupS = append(res.SetupS, total.Seconds())
		}
	case "rep", "golden":
		var tr *tracer
		var prof profiled
		measure := func() func() { return func() {} }
		if o.trace && o.role == "rep" {
			tr = newTracer()
			measure = prof.start
		}
		out, err := w.run(tr, measure)
		if err != nil {
			return err
		}
		res = childResult{
			WallS: out.wall.Seconds(), CPUS: out.cpu.Seconds(),
			Conns: out.conns, Failed: out.failed, Digest: out.digest, PeakRSSMB: peakRSSMB(),
		}
		if tr != nil {
			if prof.err != nil {
				return fmt.Errorf("cpu profile: %w", prof.err)
			}
			name := fmt.Sprintf("%s-seed%d-rep%d.cpu.pprof", o.workload, o.seed, o.rep)
			if err := writeFile(filepath.Join(outDir, "trace", name), prof.buf.Bytes()); err != nil {
				return err
			}
			res.Traced = true
			res.Layers = layerMetrics(tr, &prof, out, workers)
			res.Spans = tr.spans
		}
	default:
		return fmt.Errorf("unknown role %q", o.role)
	}
	return json.NewEncoder(os.Stdout).Encode(&res)
}

// spawn runs this binary as a child in the given role and decodes its
// result. The child is waited for; past the deadline it is killed.
func spawn(ctx context.Context, o options, role string, rep int, traced bool) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-role", role, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-trace", tr, "-rep", strconv.Itoa(rep))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child output: %w", role, err)
	}
	return &res, nil
}

// drive is the benchmark proper: set-up timing, the golden check, the
// measured repetitions, the correctness verdict and the report.
func drive(o options) error {
	if _, err := newWorkload(o.workload, o.seed, 1); err != nil {
		return err
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	fp := fingerprint(o)

	setup, err := spawn(ctx, o, "setup", 0, false)
	if err != nil {
		return err
	}
	var notes []string
	correct := true
	if o.workload == "scan" {
		ok, note, err := checkGolden(ctx, o)
		if err != nil {
			return err
		}
		correct = correct && ok
		notes = append(notes, note)
	}

	// Measured repetitions. A traced run alternates untraced and traced
	// children, so trace.overhead_frac compares neighbours in time.
	var reps []*childResult
	t0 := time.Now()
	for i := 0; time.Since(t0) < time.Duration(o.seconds)*time.Second || len(reps) < minReps ||
		(o.trace && len(reps) < 2*minTraced); i++ {
		r, err := spawn(ctx, o, "rep", i, o.trace && i%2 == 1)
		if err != nil {
			return err
		}
		reps = append(reps, r)
		fmt.Printf("rep %d: traced=%v wall %.3fs cpu %.3fs conns %d failed %d rss %.1fMB digest %s\n",
			i, r.Traced, r.WallS, r.CPUS, r.Conns, r.Failed, r.PeakRSSMB, r.Digest[:16])
	}

	// Output check: every repetition of one seed must produce the same
	// digest, traced or not. A repetition that disagrees with the
	// majority counts all its connections as failed.
	var attempted, failed uint64
	major := majorityDigest(reps)
	for _, r := range reps {
		attempted += r.Conns
		if r.Digest != major {
			failed += r.Conns
			correct = false
		}
	}
	notes = append(notes, fmt.Sprintf("digest %s (%d of %d repetitions agree, traced included)",
		major, countDigest(reps, major), len(reps)))

	untraced, traced := split(reps)
	if o.trace {
		notes = append(notes, fmt.Sprintf("trace hooks byte-inert (traced digest == untraced digest): %v",
			countDigest(reps, major) == len(reps)))
	}
	e2e := endToEndStats(untraced, setup.SetupS)
	rec := record{Fingerprint: fp, Reps: len(untraced), TracedReps: len(traced), Notes: notes, Stats: e2e}
	metrics := map[string]metricValue{}
	if !o.trace {
		for _, d := range endToEnd {
			metrics[d.name] = metricValue{e2e[d.name].Median, d.unit}
		}
	} else {
		layers := layerStats(untraced, traced, setup.BuildS)
		rec.Layers = layers
		for _, d := range perLayer() {
			metrics[d.name] = metricValue{layers[d.name], d.unit}
		}
		if err := writeSpans(o, traced); err != nil {
			return err
		}
		fmt.Printf("layers not run by %s (reported as 0): %s\n", o.workload, strings.Join(idleLayers(o.workload), ", "))
	}
	if err := writeRecord(o, &rec); err != nil {
		return err
	}
	printStats(&rec)

	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics}
	b, err := json.Marshal(&final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkGolden reproduces the committed 200x8 seed-7 golden hash through
// the benchmark's own study.Run path.
func checkGolden(ctx context.Context, o options) (ok bool, note string, err error) {
	want, err := os.ReadFile(goldenHashFile)
	if err != nil {
		return false, "", fmt.Errorf("golden hash: %w", err)
	}
	r, err := spawn(ctx, o, "golden", 0, false)
	if err != nil {
		return false, "", err
	}
	w := strings.TrimSpace(string(want))
	if r.Digest != w {
		return false, fmt.Sprintf("golden MISMATCH: got %s want %s", r.Digest, w), nil
	}
	return true, "golden 200x8 seed 7 reproduced: " + w, nil
}

func majorityDigest(reps []*childResult) string {
	best, bestN := "", 0
	for _, r := range reps {
		if n := countDigest(reps, r.Digest); n > bestN {
			best, bestN = r.Digest, n
		}
	}
	return best
}

func countDigest(reps []*childResult, d string) int {
	n := 0
	for _, r := range reps {
		if r.Digest == d {
			n++
		}
	}
	return n
}

func split(reps []*childResult) (untraced, traced []*childResult) {
	for _, r := range reps {
		if r.Traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

// connsPerS is TLS connections completed per wall second of the measured
// phase.
func connsPerS(r *childResult) float64 { return float64(r.Conns-r.Failed) / r.WallS }

// endToEndStats summarizes the untraced repetitions per metric.
func endToEndStats(reps []*childResult, setupS []float64) map[string]summary {
	var cps, cpu, rss, ok, failed []float64
	for _, r := range reps {
		frac := float64(r.Failed) / float64(r.Conns)
		cps = append(cps, connsPerS(r))
		cpu = append(cpu, r.CPUS*1000/(float64(r.Conns)/1000))
		rss = append(rss, r.PeakRSSMB)
		ok = append(ok, 1-frac)
		failed = append(failed, frac)
	}
	// failed_frac is ok_frac's complement, kept in the record for
	// readers; it is 0 on a clean network, so it is not a reported metric.
	return map[string]summary{
		"conns_per_s":      summarize(cps),
		"cpu_ms_per_kconn": summarize(cpu),
		"setup_s":          summarize(setupS),
		"peak_rss_mb":      summarize(rss),
		"ok_frac":          summarize(ok),
		"failed_frac":      summarize(failed),
	}
}

// layerStats averages the traced repetitions' per-layer metrics (a mean,
// so the CPU rows still sum to profile.cpu_s) and adds the metrics that
// come from the untraced repetitions and the set-up builds.
func layerStats(untraced, traced []*childResult, buildS []float64) map[string]float64 {
	out := map[string]float64{}
	for _, r := range traced {
		for k, v := range r.Layers {
			out[k] += v / float64(len(traced))
		}
	}
	var idle, cpsU, cpsT []float64
	for _, r := range untraced {
		idle = append(idle, 1-r.CPUS/(r.WallS*float64(runtime.GOMAXPROCS(0))))
		cpsU = append(cpsU, connsPerS(r))
	}
	for _, r := range traced {
		cpsT = append(cpsT, connsPerS(r))
	}
	out["sched.idle_frac"] = median(idle)
	out["trace.overhead_frac"] = 1 - median(cpsT)/median(cpsU)
	out["population.build_s"] = median(buildS)
	return out
}

// idleLayers names the per-layer metrics a workload leaves at 0.
func idleLayers(workload string) []string {
	if workload == "browse" {
		return []string{"scanner.*", "study.report_s"}
	}
	return []string{"traffic.*"}
}

// summary is one metric's distribution over a run's repetitions.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// default exclusive method.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m, n := len(s), len(s)+1, 4
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// hostFingerprint identifies where and on what a result was measured.
type hostFingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

// record is the full result of one run, written next to the build and
// echoed on standard output ahead of the final line.
type record struct {
	Fingerprint hostFingerprint    `json:"fingerprint"`
	Reps        int                `json:"reps"`
	TracedReps  int                `json:"traced_reps,omitempty"`
	Notes       []string           `json:"notes"`
	Stats       map[string]summary `json:"end_to_end"`
	Layers      map[string]float64 `json:"per_layer,omitempty"`
}

func fingerprint(o options) hostFingerprint {
	fp := hostFingerprint{
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", SourceHash: sourceHash(),
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
	}
	// A git checkout names its commit; an exported tree has only the
	// source hash.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			fp.Commit = strings.TrimSpace(string(out))
		}
	}
	return fp
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

// sourceHash digests the checkout's Go sources and module files, so a
// result names the code it measured even outside a git checkout.
func sourceHash() string {
	var buf bytes.Buffer
	// An unreadable entry is left out: the hash identifies code, it does
	// not verify it, and the build has already read every source it needs.
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(&buf, "%s %d\n", path, len(b))
				buf.Write(b)
			}
		}
		return nil
	})
	return digest(buf.Bytes())
}

// peakRSSMB is this process's VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func writeRecord(o options, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("record: %s\n", b)
	name := fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)
	return writeFile(filepath.Join(outDir, "results", name), append(b, '\n'))
}

// writeSpans writes every traced repetition's spans as JSON lines, one
// file per run.
func writeSpans(o options, traced []*childResult) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, r := range traced {
		for _, s := range r.Spans {
			line := struct {
				Rep int `json:"rep"`
				span
			}{i, s}
			if err := enc.Encode(&line); err != nil {
				return err
			}
		}
	}
	return writeFile(filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed)), buf.Bytes())
}

func printStats(rec *record) {
	fmt.Printf("%-18s %12s %12s %12s  (n=%d)\n", "metric", "median", "q1", "q3", rec.Reps)
	for _, d := range append(endToEnd, metricDef{"failed_frac", "frac"}) {
		s := rec.Stats[d.name]
		fmt.Printf("%-18s %12.4f %12.4f %12.4f  %s\n", d.name, s.Median, s.Q1, s.Q3, d.unit)
	}
}
