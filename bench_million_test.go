// Million-scale extrapolation profile: runs a paper-shaped campaign (63
// scan days, list size set by BENCH_MILLION_LIST) while sampling peak
// live heap, then projects memory and wall time to the Top Million x 63
// days the paper actually scanned. The projection is honest because the
// incremental aggregator makes resident memory O(domains) — independent
// of day count — and shards divide wall time by machine count without
// changing a byte of the merged dataset (TestShardedCampaignMatchesGolden).
//
// `make bench-million` refreshes the committed BENCH_million.json.
package tlsshortcuts_test

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"testing"
	"time"

	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/telemetry"
)

const (
	millionDomains = 1_000_000
	millionDays    = 63
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// liveSampler measures post-GC live heap at campaign phase boundaries.
// It is handed to study.Run as the campaign observer and samples on
// phase-end events, which fire on the coordinator goroutine after a
// phase's workers have joined — the campaign's only quiescent moments. Forcing a collection there and
// reading /gc/heap/live:bytes yields the reachable bytes of resident
// campaign state: the number the O(domains) memory model is a claim
// about. Passive sampling instead over-reports residency by the
// floating garbage a concurrent mark traces while 16 workers churn
// (measured ~2x at GOGC=100, plus allocate-black inflation on a busy
// host), turning the metric into a GC-configuration probe. One forced
// GC per phase (~one per scan day) costs a few percent of wall time,
// honestly included in the reported seconds_per_op.
type liveSampler struct {
	samples []metrics.Sample
	peak    uint64 // OnPhase calls and the final read are sequenced by study.Run
}

func newLiveSampler() *liveSampler {
	return &liveSampler{samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (ls *liveSampler) read() {
	runtime.GC()
	metrics.Read(ls.samples)
	if v := ls.samples[0].Value.Uint64(); v > ls.peak {
		ls.peak = v
	}
}

func (ls *liveSampler) OnPhase(ev telemetry.PhaseEvent) error {
	if !ev.Start {
		ls.read()
	}
	return nil
}

// heapSampler polls total heap object bytes (live plus not-yet-collected
// garbage; tracks GC slack and so measures allocation churn as much as
// residency — reported for context, not gated) until stopped, recording
// the peak.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				read()
				s.done <- peak
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return s
}

func (s *heapSampler) peak() uint64 {
	close(s.stop)
	return <-s.done
}

func BenchmarkCampaignMillionProfile(b *testing.B) {
	size := envInt("BENCH_MILLION_LIST", 4000)
	days := envInt("BENCH_MILLION_DAYS", millionDays)
	b.ReportAllocs()

	var dials uint64
	var elapsed time.Duration
	var peakLive, peakObjects uint64
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler := startHeapSampler()
		live := newLiveSampler()
		start := time.Now()
		ds, err := study.Run(study.Options{ListSize: size, Days: days, Seed: 3, Workers: 16, Observer: live})
		if err != nil {
			b.Fatal(err)
		}
		live.read() // final dataset + world, after the last phase
		elapsed += time.Since(start)
		dials += ds.Dials
		if live.peak > peakLive {
			peakLive = live.peak
		}
		if p := sampler.peak(); p > peakObjects {
			peakObjects = p
		}
	}
	b.StopTimer()

	secPerOp := elapsed.Seconds() / float64(b.N)
	hsPerSec := float64(dials) / elapsed.Seconds()
	bytesPerDomain := float64(peakLive) / float64(size)
	domainDays := float64(size) * float64(days)
	targetDomainDays := float64(millionDomains) * float64(millionDays)
	b.ReportMetric(hsPerSec, "handshakes/s")
	b.ReportMetric(bytesPerDomain, "heapB/domain")

	out := os.Getenv("BENCH_MILLION_OUT")
	if out == "" {
		return
	}
	doc := map[string]interface{}{
		"benchmark":                  "CampaignMillionProfile",
		"list_size":                  size,
		"days":                       days,
		"workers":                    16,
		"seed":                       3,
		"iterations":                 b.N,
		"seconds_per_op":             secPerOp,
		"handshakes_per_op":          dials / uint64(b.N),
		"handshakes_per_sec":         hsPerSec,
		"peak_live_heap_bytes":       peakLive,
		"peak_heap_objects_bytes":    peakObjects,
		"live_heap_bytes_per_domain": bytesPerDomain,
		"live_heap_method":           "peak /gc/heap/live:bytes read after a forced GC at each phase boundary (workers quiescent); passive sampling would count the concurrent marker's floating garbage as resident",
		"extrapolation": map[string]interface{}{
			"target":                        "Top Million x 63 days (paper scale)",
			"projected_peak_heap_bytes":     uint64(bytesPerDomain * millionDomains),
			"projected_wall_hours_1host":    secPerOp * targetDomainDays / domainDays / 3600,
			"projected_wall_hours_64shards": secPerOp * targetDomainDays / domainDays / 3600 / 64,
			"memory_model":                  "O(domains): per-day observations fold into running per-domain state as each day completes, so days do not multiply resident memory",
			"shard_model":                   "studyrun -shard i/N slices divide wall time ~linearly; -merge reproduces the monolithic dataset byte-identically",
		},
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s", out)
}
