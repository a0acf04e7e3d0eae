// Command studyrun executes the full nine-week measurement campaign against
// a freshly generated synthetic population and writes the dataset to disk.
//
// Usage:
//
//	studyrun -listsize 5000 -days 64 -seed 1 -out dataset.json
//
// Sharding (CI splits a campaign across machines and recombines):
//
//	studyrun -listsize 5000 -days 64 -seed 1 -shard 0/3 -out shard0.json
//	studyrun -listsize 5000 -days 64 -seed 1 -shard 1/3 -out shard1.json
//	studyrun -listsize 5000 -days 64 -seed 1 -shard 2/3 -out shard2.json
//	studyrun -merge -out dataset.json shard0.json shard1.json shard2.json
//
// The merged dataset is byte-identical to the monolithic run's (the CI
// determinism job enforces this against a committed golden hash).
//
// Simulated user traffic (adds a Traffic section to dataset and report;
// provably inert to the scanner's observations — with the flag off the
// dataset is byte-identical to a run that never had the feature):
//
//	studyrun -traffic                        # listsize/2 users, ~6 visits/user-day
//	studyrun -traffic -traffic-users 200     # explicit user population
//
// Observability (all off by default; none of it perturbs the dataset):
//
//	studyrun -telemetry-out telemetry.json   # final metrics snapshot as JSON
//	studyrun -journal flight.jsonl           # flight-recorder event journal: one phase_end span per phase
//	studyrun -obsv 127.0.0.1:9090            # /metrics /progress /journal /healthz /debug/pprof/ HTTP plane
//	studyrun -obsv-peers http://h2:9090      # merge sibling shards into /cluster
//
// The per-day log line on stderr is the live console view; live rates
// (handshakes/s, failure rate, utilization) stream from
// -obsv ADDR/progress?stream=1.
//
// On any fatal error the observability sinks are finalized, not lost: the
// journal ends with a campaign_aborted event recording the failure and the
// telemetry snapshot is still written.
//
// The dataset feeds cmd/report, which regenerates every table and figure.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/obsv"
	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/traffic"
)

func main() {
	var (
		listSize = flag.Int("listsize", 5000, "scaled Top Million list size")
		days     = flag.Int("days", 64, "study length in days (paper: Mar 2 - May 4 2016)")
		seed     = flag.Int64("seed", 1, "deterministic world/scan seed")
		workers  = flag.Int("workers", runtime.NumCPU(),
			"scan concurrency (default NumCPU: probes are CPU-bound on the in-process simnet, never blocked on real I/O; NumCPU*2 measured ~3% slower on a 1-CPU host, 2.41s vs 2.35s for a 150x6 campaign)")
		out    = flag.String("out", "dataset.json", "output dataset path")
		report = flag.Bool("report", true, "print the full report after the run")
		quiet  = flag.Bool("quiet", false, "suppress progress logging")

		shard = flag.String("shard", "", "run one campaign slice, as i/N (e.g. 0/3); merge with -merge")
		merge = flag.Bool("merge", false, "merge shard dataset files (given as args) into -out instead of running")

		weakCrypto = flag.Bool("weak-crypto", false, "seed weak-STEK / shared-key-name / export-DH operators and run the cryptanalysis pass")

		trafficOn     = flag.Bool("traffic", false, "run the simulated-user traffic plane alongside the campaign")
		trafficUsers  = flag.Int("traffic-users", 0, "simulated user population (default listsize/2)")
		trafficSeed   = flag.Int64("traffic-seed", 0, "traffic workload seed (defaults to -seed)")
		trafficVisits = flag.Float64("traffic-visits", 0, "mean visits per user per day (default 6)")

		retries     = flag.Int("retries", 0, "transient-failure retries (0 = scanner default, <0 disables)")
		faultSeed   = flag.Int64("fault-seed", 0, "fault plan seed (defaults to -seed)")
		faultRefuse = flag.Float64("fault-refuse", 0, "per-dial refusal probability")
		faultReset  = flag.Float64("fault-reset", 0, "per-dial mid-handshake reset probability")
		faultStall  = flag.Float64("fault-stall", 0, "per-dial stalled-server probability")
		faultFlap   = flag.Float64("fault-flap", 0, "per-(backend,day) outage probability")
		faultChurn  = flag.Float64("fault-churn", 0, "per-domain churn-window probability")
		churnDays   = flag.Int("fault-churn-days", 3, "max churn window length in days")

		telemetryOut = flag.String("telemetry-out", "", "write the final telemetry snapshot JSON to this path")
		journalOut   = flag.String("journal", "", "write the flight-recorder event journal (JSONL) to this path")
		obsvAddr     = flag.String("obsv", "", "serve the observability plane (/metrics /progress /journal /healthz /debug/pprof/) on this address")
		obsvPeers    = flag.String("obsv-peers", "", "comma-separated base URLs of sibling shards' -obsv servers, merged into /cluster")

		abortAfterDay = flag.Int("abort-after-day", -1, "abort the campaign after this day completes (fault-injection test hook)")
	)
	flag.Parse()

	logf := func(format string, args ...interface{}) {
		if !*quiet {
			log.Printf(format, args...)
		}
	}
	if *merge {
		if err := runMerge(flag.Args(), *out, *report, logf); err != nil {
			log.Fatalf("studyrun: %v", err)
		}
		return
	}
	var fo *faults.Options
	if *faultRefuse > 0 || *faultReset > 0 || *faultStall > 0 || *faultFlap > 0 || *faultChurn > 0 {
		fs := *faultSeed
		if fs == 0 {
			fs = *seed
		}
		fo = &faults.Options{
			Seed:         fs,
			Refuse:       *faultRefuse,
			Reset:        *faultReset,
			Stall:        *faultStall,
			Flap:         *faultFlap,
			Churn:        *faultChurn,
			ChurnMaxDays: *churnDays,
		}
	}
	var to *traffic.Options
	if *trafficOn || *trafficUsers > 0 {
		tu := *trafficUsers
		if tu <= 0 {
			tu = *listSize / 2
			if tu < 1 {
				tu = 1
			}
		}
		to = &traffic.Options{Users: tu, Seed: *trafficSeed, MeanVisits: *trafficVisits}
	}
	cfg := runConfig{
		opts: study.Options{
			ListSize:   *listSize,
			Days:       *days,
			Seed:       *seed,
			Workers:    *workers,
			Logf:       logf,
			Faults:     fo,
			Retries:    *retries,
			WeakCrypto: *weakCrypto,
			Traffic:    to,
		},
		shard:         *shard,
		out:           *out,
		report:        *report,
		telemetryOut:  *telemetryOut,
		journalPath:   *journalOut,
		obsvAddr:      *obsvAddr,
		obsvPeers:     splitList(*obsvPeers),
		abortAfterDay: *abortAfterDay,
		logf:          logf,
		stdout:        os.Stdout,
	}
	// All sink finalization (journal campaign_aborted, telemetry
	// snapshot) happens inside runStudy's defers, so exiting on error
	// here cannot lose observability data.
	if err := runStudy(cfg); err != nil {
		log.Fatalf("studyrun: %v", err)
	}
}

// runConfig is everything runStudy needs; main builds it from flags and
// the fatal-path regression test builds it directly.
type runConfig struct {
	opts          study.Options // Telemetry/Observer are wired by runStudy
	shard         string
	out           string
	report        bool
	telemetryOut  string
	journalPath   string
	obsvAddr      string
	obsvPeers     []string
	abortAfterDay int // <0 disables; >=0 forces an abort after that day
	logf          func(string, ...interface{})
	stdout        *os.File
}

// runStudy executes one campaign (or shard). Every observability sink is
// finalized on the way out regardless of success: the journal is closed
// after recording campaign_end (success) or campaign_aborted (any error),
// and the telemetry snapshot is written if requested. Callers that
// log.Fatalf afterwards lose nothing.
func runStudy(cfg runConfig) (retErr error) {
	logf := cfg.logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	opts := cfg.opts
	if cfg.shard != "" {
		spec, err := parseShard(cfg.shard)
		if err != nil {
			return fmt.Errorf("bad -shard: %v", err)
		}
		opts.Shard = spec
	}

	// Any observability flag turns the registry on; the campaign itself
	// is provably unaffected either way (telemetry observes, never
	// perturbs — see internal/telemetry and the inertness test).
	reg := opts.Telemetry
	if reg == nil && (cfg.telemetryOut != "" || cfg.journalPath != "" || cfg.obsvAddr != "") {
		reg = telemetry.NewRegistry()
		opts.Telemetry = reg
	}

	var journal *obsv.Journal
	if cfg.journalPath != "" {
		j, err := obsv.CreateJournal(cfg.journalPath)
		if err != nil {
			return fmt.Errorf("creating journal: %v", err)
		}
		journal = j
		journal.SetShard(cfg.shard)
		journal.CampaignStart(opts.ListSize, opts.Days, opts.Seed, opts.Workers, cfg.shard)
		opts.Observer = journal
		defer func() {
			if retErr != nil {
				journal.Abort(retErr)
			}
			if err := journal.Close(); err != nil && retErr == nil {
				retErr = fmt.Errorf("journal: %v", err)
			}
		}()
	}
	if cfg.abortAfterDay >= 0 {
		opts.Observer = &abortAfterDay{inner: opts.Observer, day: cfg.abortAfterDay}
	}

	if cfg.telemetryOut != "" {
		defer func() {
			// Written on the error path too: the snapshot of a failed
			// campaign is exactly the telemetry worth keeping.
			b, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if err == nil {
				err = os.WriteFile(cfg.telemetryOut, append(b, '\n'), 0o644)
			}
			if err != nil && retErr == nil {
				retErr = fmt.Errorf("writing telemetry: %v", err)
			} else if err == nil {
				logf("telemetry snapshot written to %s", cfg.telemetryOut)
			}
		}()
	}

	if cfg.obsvAddr != "" {
		ln, err := net.Listen("tcp", cfg.obsvAddr)
		if err != nil {
			return fmt.Errorf("obsv listen: %v", err)
		}
		obsvServer := obsv.NewServer(obsv.Config{
			Registry: reg,
			Days:     opts.Days,
			ListSize: opts.ListSize,
			Shard:    cfg.shard,
			Workers:  opts.Workers,
			Journal:  journal,
			Peers:    cfg.obsvPeers,
			Logf:     logf,
		})
		obsvServer.Start()
		defer obsvServer.Close()
		go func() {
			logf("observability plane on http://%s/progress", ln.Addr())
			if err := http.Serve(ln, withPprof(obsvServer)); err != nil {
				logf("obsv server: %v", err)
			}
		}()
		defer ln.Close()
	}

	logf("building %d-domain world and running %d-day campaign (seed %d, %d workers)",
		opts.ListSize, opts.Days, opts.Seed, opts.Workers)
	start := time.Now()
	ds, err := study.Run(opts)
	if err != nil {
		return fmt.Errorf("study failed: %v", err)
	}
	logf("campaign finished in %v; writing %s", time.Since(start).Round(time.Second), cfg.out)
	if len(ds.Failures) > 0 {
		total := 0
		for _, f := range ds.Failures {
			total += f.Count
		}
		logf("scan failures: %d across %d (scan, class) cells; %d domains with missed days",
			total, len(ds.Failures), len(ds.MissedDays))
	}
	if err := ds.Save(cfg.out); err != nil {
		return fmt.Errorf("saving dataset: %v", err)
	}
	if journal != nil {
		journal.CampaignEnd(datasetHash(ds))
	}
	if cfg.report && cfg.stdout != nil {
		fmt.Fprintln(cfg.stdout, study.BuildReport(ds).String())
		if reg != nil {
			fmt.Fprintln(cfg.stdout, study.TelemetrySection(reg.Snapshot()))
		}
	}
	return nil
}

// withPprof mounts net/http/pprof's /debug/pprof/ handlers (registered
// on http.DefaultServeMux by its import) beside the obsv server, so one
// listener serves both; every other path goes to srv.
func withPprof(srv http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.Handle("/", srv)
	return mux
}

// datasetHash is the canonical dataset fingerprint the journal records:
// sha256 over the JSON encoding, matching the determinism suite's.
func datasetHash(ds *study.Dataset) string {
	b, err := json.Marshal(ds)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// abortAfterDay is the fault-injection observer behind -abort-after-day:
// it delegates to the real observer (so the journal records everything up
// to the failure) and then fails the campaign after day N's phase ends —
// exercising the same abort path a mid-campaign error would take.
type abortAfterDay struct {
	inner study.CampaignObserver
	day   int
}

func (a *abortAfterDay) OnPhase(ev telemetry.PhaseEvent) error {
	if a.inner != nil {
		if err := a.inner.OnPhase(ev); err != nil {
			return err
		}
	}
	if !ev.Start && ev.Span.Phase == "day" && ev.Span.Day >= a.day {
		return fmt.Errorf("injected abort after day %d (-abort-after-day)", ev.Span.Day)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseShard parses "i/N" into a validated ShardSpec.
func parseShard(s string) (*study.ShardSpec, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return nil, fmt.Errorf("want i/N, got %q", s)
	}
	idx, err := strconv.Atoi(s[:i])
	if err != nil {
		return nil, fmt.Errorf("shard index: %v", err)
	}
	count, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return nil, fmt.Errorf("shard count: %v", err)
	}
	spec := &study.ShardSpec{Index: idx, Count: count}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// runMerge loads the shard dataset files named in args, recombines them
// with study.MergeDatasets, and writes the monolithic-equivalent dataset.
func runMerge(paths []string, out string, report bool, logf func(string, ...interface{})) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs shard dataset files as arguments")
	}
	shards := make([]*study.Dataset, 0, len(paths))
	for _, p := range paths {
		ds, err := study.Load(p)
		if err != nil {
			return fmt.Errorf("loading shard %s: %v", p, err)
		}
		shards = append(shards, ds)
	}
	merged, err := study.MergeDatasets(shards...)
	if err != nil {
		return fmt.Errorf("merging shards: %v", err)
	}
	logf("merged %d shards; writing %s", len(shards), out)
	if err := merged.Save(out); err != nil {
		return fmt.Errorf("saving dataset: %v", err)
	}
	if report {
		fmt.Fprintln(os.Stdout, study.BuildReport(merged).String())
	}
	return nil
}
