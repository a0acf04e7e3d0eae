package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/traffic"
)

// Workload sizes. Each measured unit takes 2-3 s on a 2-CPU host, so a
// run of a few tens of seconds gets enough repetitions for a median.
const (
	scanDomains    = 300
	scanDays       = 10
	browseDomains  = 1000
	browseUsers    = 150
	browseDays     = 2
	browseVisits   = 60 // mean visits per user per day; resumes ~57%
	goldenDomains  = 200
	goldenDays     = 8
	goldenSeed     = 7
	goldenHashFile = "internal/study/testdata/campaign_200x8_seed7.sha256"
)

// workload is one named set of inputs, derived from the seed alone.
type workload struct {
	pop     population.Options
	study   *study.Options   // scan, lossy
	traffic *traffic.Options // browse
	days    int              // browse: traffic days
}

func newWorkload(name string, seed int64, workers int) (*workload, error) {
	w := &workload{}
	switch name {
	case "scan", "lossy":
		o := &study.Options{ListSize: scanDomains, Days: scanDays, Seed: seed, Workers: workers}
		if name == "lossy" {
			// No stalls: a stall waits out a wall-clock deadline, which
			// would time sleep rather than work.
			o.Faults = &faults.Options{Seed: seed, Refuse: 0.05, Reset: 0.05, Flap: 0.02, Churn: 0.02}
		}
		w.study = o
		w.pop = population.Options{ListSize: scanDomains, Seed: seed}
	case "browse":
		w.pop = population.Options{ListSize: browseDomains, Seed: seed}
		w.traffic = &traffic.Options{Users: browseUsers, Seed: seed, Workers: workers, MeanVisits: browseVisits}
		w.days = browseDays
	default:
		return nil, fmt.Errorf("unknown workload %q (want scan, browse or lossy)", name)
	}
	return w, nil
}

// goldenWorkload is the committed 200x8 seed-7 campaign, run through the
// same path as scan.
func goldenWorkload(workers int) *workload {
	return &workload{study: &study.Options{
		ListSize: goldenDomains, Days: goldenDays, Seed: goldenSeed, Workers: workers,
	}}
}

// setup times what a workload builds before its measured phase:
// population.Build, plus traffic.NewEngine for browse.
func (w *workload) setup() (build, total time.Duration, err error) {
	t0 := time.Now()
	world, err := population.Build(w.pop)
	if err != nil {
		return 0, 0, err
	}
	build = time.Since(t0)
	if w.traffic != nil {
		if _, err := traffic.NewEngine(world, *w.traffic, telemetry.NewRegistry()); err != nil {
			return 0, 0, err
		}
	}
	return build, time.Since(t0), nil
}

// outcome is what one measured unit produced.
type outcome struct {
	conns  uint64 // TLS connections attempted, retries included
	failed uint64 // of which ended in a dial, timeout or reset class
	digest string // sha256 of the dataset (scan, lossy) or traffic Results JSON (browse)
	wall   time.Duration
	cpu    time.Duration
}

// run executes the workload's measured phase once. tr, when non-nil,
// attaches telemetry, the phase observer and spans; measure brackets the
// measured phase (start is called right before it, and the returned stop
// right after).
func (w *workload) run(tr *tracer, measure func() (stop func())) (*outcome, error) {
	if w.study != nil {
		return w.runStudy(tr, measure)
	}
	return w.runBrowse(tr, measure)
}

func (w *workload) runStudy(tr *tracer, measure func() func()) (*outcome, error) {
	o := *w.study
	if tr != nil {
		o.Telemetry = tr.reg
		o.Observer = tr
	}
	stop := measure()
	t0, c0 := time.Now(), processCPU()
	end := tr.begin("study.Run", "")
	ds, err := study.Run(o)
	end()
	wall, cpu := time.Since(t0), processCPU()-c0
	stop()
	if err != nil {
		return nil, fmt.Errorf("study.Run: %w", err)
	}
	b, err := json.Marshal(ds)
	if err != nil {
		return nil, fmt.Errorf("marshal dataset: %w", err)
	}
	if tr != nil {
		end := tr.begin("study.report", "")
		_ = study.BuildReport(ds).String()
		end()
	}
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	return &outcome{conns: ds.Dials, failed: scanFailures(ds), digest: digest(b), wall: wall, cpu: cpu}, nil
}

func (w *workload) runBrowse(tr *tracer, measure func() func()) (*outcome, error) {
	end := tr.begin("population.Build", "")
	world, err := population.Build(w.pop)
	end()
	if err != nil {
		return nil, fmt.Errorf("population.Build: %w", err)
	}
	clock, ok := world.Clock.(*simclock.Manual)
	if !ok {
		return nil, fmt.Errorf("population clock is not manual")
	}
	reg := telemetry.NewRegistry()
	if tr != nil {
		// The session, ticket and keyex collectors report through the
		// process-global registry; study.Run installs its own, the
		// standalone traffic path needs it done here.
		reg = tr.reg
		defer telemetry.SetGlobal(reg)()
		world.Net.SetTelemetry(reg)
	}
	end = tr.begin("traffic.NewEngine", "")
	eng, err := traffic.NewEngine(world, *w.traffic, reg)
	end()
	if err != nil {
		return nil, fmt.Errorf("traffic.NewEngine: %w", err)
	}

	stop := measure()
	t0, c0 := time.Now(), processCPU()
	endRun := tr.begin("traffic.run", "")
	start := clock.Now()
	var visits, fails int
	for day := 0; day < w.days; day++ {
		clock.Set(start.Add(time.Duration(day) * 24 * time.Hour))
		end := tr.begin("traffic.RunDay", "traffic.run")
		v, f := eng.RunDay(day)
		end()
		visits += v
		fails += f
	}
	end = tr.begin("traffic.Finalize", "traffic.run")
	res := eng.Finalize()
	end()
	endRun()
	wall, cpu := time.Since(t0), processCPU()-c0
	stop()

	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("marshal traffic results: %w", err)
	}
	if visits == 0 || res.Conns()+uint64(fails) != uint64(visits) {
		return nil, fmt.Errorf("traffic accounting: %d visits, %d completed, %d failed", visits, res.Conns(), fails)
	}
	return &outcome{conns: uint64(visits), failed: uint64(fails), digest: digest(b), wall: wall, cpu: cpu}, nil
}

// scanFailures counts the connections whose final attempt ended in a
// transient (dial, timeout, reset) class. Forced-suite alerts and other
// protocol answers are measurements, not failures.
func scanFailures(ds *study.Dataset) uint64 {
	var n uint64
	for _, f := range ds.Failures {
		if faults.Transient(faults.ErrClass(f.Class)) {
			n += uint64(f.Count)
		}
	}
	return n
}

// checkDataset rejects a dataset that cannot be a completed campaign.
func checkDataset(ds *study.Dataset) error {
	if ds.Dials == 0 || ds.TicketSnapshot.Scanned != ds.ListSize || len(ds.TrustedCore) == 0 {
		return fmt.Errorf("implausible dataset: %d dials, %d of %d scanned, %d core domains",
			ds.Dials, ds.TicketSnapshot.Scanned, ds.ListSize, len(ds.TrustedCore))
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
