package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"tlsshortcuts/internal/telemetry"
)

// span is one timed call at a layer boundary. Parent names the span that
// caused it ("" for a root); all spans of one run share the run's trace
// file, so the run is their common identifier.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	// Phase spans from study.Options.Observer carry the scanner's own
	// accounting for the phase.
	Handshakes  uint64  `json:"handshakes,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndUs-s.StartUs) / 1e6 }

// tracer records the traced run's spans in memory and reads the
// program's telemetry. It is also the campaign's phase observer. A nil
// *tracer records nothing, so the untraced path calls it unconditionally.
type tracer struct {
	reg   *telemetry.Registry
	t0    time.Time
	spans []span
	open  map[string]int // phase key -> index into spans
}

func newTracer() *tracer {
	return &tracer{reg: telemetry.NewRegistry(), t0: time.Now(), open: map[string]int{}}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Microseconds() }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, parent string) (end func()) {
	if t == nil {
		return func() {}
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartUs: t.now()})
	return func() { t.spans[i].EndUs = t.now() }
}

// OnPhase implements study.CampaignObserver: each campaign phase becomes
// a child span of study.Run. study.Run calls it from its own goroutine,
// between phases.
func (t *tracer) OnPhase(ev telemetry.PhaseEvent) error {
	key := fmt.Sprintf("%s/%d", ev.Span.Phase, ev.Span.Day)
	if ev.Start {
		t.open[key] = len(t.spans)
		t.spans = append(t.spans, span{Name: "phase." + ev.Span.Phase, Parent: "study.Run", StartUs: t.now()})
		return nil
	}
	i, ok := t.open[key]
	if !ok {
		return fmt.Errorf("phase %s ended without starting", key)
	}
	delete(t.open, key)
	t.spans[i].EndUs = t.now()
	t.spans[i].Handshakes = ev.Span.Handshakes
	t.spans[i].Utilization = ev.Span.Utilization
	return nil
}

// spanSeconds sums the durations of the spans with the given names.
func (t *tracer) spanSeconds(names ...string) (sum float64, n int) {
	for _, s := range t.spans {
		for _, want := range names {
			if s.Name == want {
				sum += s.seconds()
				n++
			}
		}
	}
	return sum, n
}

// profiled runs the measured phase under a CPU profile and a MemStats
// delta. The returned function stops both; read results from p after.
type profiled struct {
	buf          bytes.Buffer
	ms0, ms1     runtime.MemStats
	err          error
	rows         map[string]float64
	profileTotal float64
}

func (p *profiled) start() (stop func()) {
	runtime.ReadMemStats(&p.ms0)
	if p.err = pprof.StartCPUProfile(&p.buf); p.err != nil {
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&p.ms1)
		var samples []sample
		if samples, p.err = parseCPUProfile(p.buf.Bytes()); p.err == nil {
			p.rows, p.profileTotal = attributeAll(samples)
		}
	}
}

// layerMetrics derives one traced repetition's per-layer metrics from its
// profile, spans and telemetry. Metrics of a layer the workload does not
// run read 0.
func layerMetrics(tr *tracer, p *profiled, o *outcome, workers int) map[string]float64 {
	m := map[string]float64{}
	for _, r := range cpuRows() {
		m[r] = p.rows[r]
	}
	m[rowProfileTotal] = p.profileTotal

	snap := tr.reg.Snapshot()
	c := snap.Counters
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m["keyex.cache_hit_rate"] = ratio(c["wall/keyex/cache_hit"], c["keyex/reuse_lookups"])
	m["session.cache_hit_rate"] = ratio(c["session/cache_hit"], c["session/cache_hit"]+c["session/cache_stale"])
	m["ticket.open_ok_rate"] = ratio(c["ticket/open_ok"], c["ticket/open_ok"]+c["ticket/open_miss"])
	m["ticket.stek_rotations"] = float64(c[telemetry.CounterSTEKRotations])
	m["simnet.dials"] = float64(c["simnet/dials"])

	if o.conns > 0 {
		m["runtime.allocs_per_conn"] = float64(p.ms1.Mallocs-p.ms0.Mallocs) / float64(o.conns)
		m["runtime.alloc_bytes_per_conn"] = float64(p.ms1.TotalAlloc-p.ms0.TotalAlloc) / float64(o.conns)
		m["failed_frac"] = float64(o.failed) / float64(o.conns)
	}
	m["runtime.gc_cycles"] = float64(p.ms1.NumGC - p.ms0.NumGC)

	if _, n := tr.spanSeconds("study.Run"); n > 0 {
		m["scanner.lifetime_s"], _ = tr.spanSeconds("phase.lifetime-id", "phase.lifetime-ticket")
		m["scanner.daily_s"], _ = tr.spanSeconds("phase.day")
		m["scanner.xdomain_s"], _ = tr.spanSeconds("phase.cross-domain")
		scanWall := m["scanner.lifetime_s"] + m["scanner.daily_s"] + m["scanner.xdomain_s"]
		if scanWall > 0 {
			busy := float64(c[telemetry.CounterBusyNanos]) / 1e9
			m["scanner.utilization"] = busy / (scanWall * float64(workers))
		}
		hs := c[telemetry.CounterHandshakesStarted]
		m["scanner.handshakes"] = float64(hs)
		m["scanner.retry_frac"] = ratio(c[telemetry.CounterRetries], hs)
		lat := snap.MergeHistograms("wall/scanner/latency/")
		m["scanner.handshake_p50_us"] = float64(lat.Quantile(0.50).Microseconds())
		m["scanner.handshake_p99_us"] = float64(lat.Quantile(0.99).Microseconds())
		m["study.report_s"], _ = tr.spanSeconds("study.report")
	}
	if days, n := tr.spanSeconds("traffic.RunDay"); n > 0 {
		m["traffic.day_s"] = days / float64(n)
		m["traffic.finalize_s"], _ = tr.spanSeconds("traffic.Finalize")
		visits := c[telemetry.CounterTrafficVisits]
		m["traffic.visits"] = float64(visits)
		m["traffic.resumed_frac"] = ratio(c[telemetry.CounterTrafficResumed], visits)
		m["traffic.cross_host_frac"] = ratio(c[telemetry.CounterTrafficCrossHost], visits)
	}
	return m
}
