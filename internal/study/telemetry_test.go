package study

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
)

// readGolden returns the committed golden campaign hash.
func readGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "campaign_200x8_seed7.sha256"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return strings.TrimSpace(string(want))
}

// TestTelemetryObservationallyInert is the tentpole's hard requirement,
// in two parts.
//
// Part 1 — byte inertness: the golden 200×8 campaign must serialize to
// the committed hash with telemetry disabled AND with a registry plus a
// phase observer fully enabled. Telemetry observes, never perturbs: it may
// not draw entropy, shift the virtual clock, or reorder probes.
//
// Part 2 — metric determinism: under a fixed non-empty fault plan, the
// deterministic view of the telemetry snapshot (everything outside the
// wall/ prefix) must be identical for 3 and 13 workers. Counters and
// virtual-latency histograms are functions of (seed, fault plan, probe
// schedule), never of goroutine scheduling.
func TestTelemetryObservationallyInert(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four campaigns")
	}
	want := readGolden(t)

	// Part 1: disabled run.
	if got := datasetHash(t, detOpts); got != want {
		t.Fatalf("telemetry-disabled campaign diverged from golden:\n  got  %s\n  want %s", got, want)
	}

	// Part 1: enabled run — registry plus phase observer.
	var spans spanRecorder
	o := detOpts
	o.Telemetry = telemetry.NewRegistry()
	o.Observer = &spans
	if got := datasetHash(t, o); got != want {
		t.Fatalf("ENABLED telemetry perturbed the campaign:\n  got  %s\n  want %s", got, want)
	}
	snap := o.Telemetry.Snapshot()
	if snap.Counters[telemetry.CounterProbes] == 0 {
		t.Fatal("enabled registry recorded no probes")
	}
	if snap.Counters["simnet/dials"] != snap.Counters[telemetry.CounterHandshakesStarted] {
		t.Fatalf("dials (%d) != handshakes started (%d)",
			snap.Counters["simnet/dials"], snap.Counters[telemetry.CounterHandshakesStarted])
	}
	if got := snap.Counters[telemetry.CounterDaysCompleted]; got != uint64(detOpts.Days) {
		t.Fatalf("days_completed = %d, want %d", got, detOpts.Days)
	}
	if len(spans) == 0 {
		t.Fatal("observer received no phase_end spans")
	}

	// Part 2: fixed fault plan, 3 vs 13 workers.
	fo := &faults.Options{Seed: 11, Refuse: 0.06, Reset: 0.03, Stall: 0.01, Flap: 0.05, Churn: 0.08, ChurnMaxDays: 3}
	base := Options{ListSize: 120, Days: 5, Seed: 7, ProbeTimeout: 120 * time.Millisecond, Faults: fo}
	snaps := make([]*telemetry.Snapshot, 2)
	for i, workers := range []int{3, 13} {
		o := base
		o.Workers = workers
		o.Telemetry = telemetry.NewRegistry()
		if _, err := Run(o); err != nil {
			t.Fatalf("faulted run (%d workers): %v", workers, err)
		}
		snaps[i] = o.Telemetry.Snapshot().Deterministic()
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		a, _ := json.MarshalIndent(snaps[0], "", "  ")
		b, _ := json.MarshalIndent(snaps[1], "", "  ")
		t.Fatalf("deterministic telemetry differs across worker counts:\n--- 3 workers ---\n%s\n--- 13 workers ---\n%s", a, b)
	}
	if snaps[0].Counters["scanner/retries"] == 0 {
		t.Fatal("faulted campaign recorded no retries")
	}
	foundFault := false
	for name := range snaps[0].Counters {
		if strings.HasPrefix(name, "simnet/faults/") {
			foundFault = true
		}
	}
	if !foundFault {
		t.Fatalf("no simnet fault-kind counters recorded: %v", snaps[0].Counters)
	}
}

// spanRecorder is a CampaignObserver that keeps each phase's completed
// span, in order.
type spanRecorder []telemetry.Span

func (r *spanRecorder) OnPhase(ev telemetry.PhaseEvent) error {
	if !ev.Start {
		*r = append(*r, ev.Span)
	}
	return nil
}

// TestScanDayTraceSpans checks the spans a campaign delivers in its
// phase-end events: one per lifetime pass, per scan day, and for the
// cross-domain pass, with the schema fields the operator dashboards
// would key on.
func TestScanDayTraceSpans(t *testing.T) {
	var spans spanRecorder
	o := Options{ListSize: 60, Days: 3, Seed: 7, Workers: 4, Observer: &spans}
	if _, err := Run(o); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantPhases := []string{"lifetime-id", "lifetime-ticket", "day", "day", "day", "cross-domain"}
	if len(spans) != len(wantPhases) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(wantPhases), spans)
	}
	for i, s := range spans {
		if s.Phase != wantPhases[i] {
			t.Fatalf("span %d phase = %q, want %q", i, s.Phase, wantPhases[i])
		}
		if s.Days != o.Days || s.Workers != o.Workers {
			t.Fatalf("span %d carries days=%d workers=%d, want %d/%d", i, s.Days, s.Workers, o.Days, o.Workers)
		}
		if s.Handshakes == 0 {
			t.Fatalf("span %d recorded no handshakes: %+v", i, s)
		}
		if s.Phase == "day" {
			if want := i - 2; s.Day != want {
				t.Fatalf("span %d day = %d, want %d", i, s.Day, want)
			}
			// Scan day d runs with the virtual clock at start + d·24h.
			wantDate := simclock.Epoch.Add(time.Duration(s.Day) * 24 * time.Hour).Format(time.RFC3339)
			if s.VirtualDate != wantDate {
				t.Fatalf("span %d virtual date = %q, want %q", i, s.VirtualDate, wantDate)
			}
		} else if s.Day != -1 {
			t.Fatalf("non-day span %d has day %d", i, s.Day)
		}
	}
}

// TestReportRenderingDeterministic is the satellite's regression test:
// the failure table and the telemetry section must render identically
// across calls — Go randomizes map iteration order, so any unsorted map
// walk in either renderer fails this within a few repetitions.
func TestReportRenderingDeterministic(t *testing.T) {
	ds := &Dataset{
		ListSize: 10, Days: 3, TrustedCore: []string{"a.example", "b.example"},
		Operators: map[string]string{"a.example": "opA", "b.example": "opB"},
		Failures: []FailureCount{
			{Scan: "lifetime-ticket", Class: "timeout", Count: 2},
			{Scan: "ticket", Class: "dial", Count: 7},
			{Scan: "ticket-pair", Class: "reset", Count: 1},
		},
	}
	rep := BuildReport(ds)

	reg := telemetry.NewRegistry()
	for _, n := range []string{
		"simnet/dials", "scanner/probes", "wall/scanner/busy_ns",
		"ticket/open_ok", "session/cache_hit", "keyex/reuse_lookups",
		"scanner/errors/timeout", "simnet/faults/refuse", "study/days_completed",
	} {
		reg.Counter(n).Add(uint64(len(n)))
	}
	reg.Histogram("scanner/vlatency/daily|ticket").Observe(250 * time.Millisecond)
	reg.Histogram("wall/scanner/latency/daily|ticket").Observe(80 * time.Microsecond)
	snap := reg.Snapshot()

	table := rep.FailureTable()
	section := TelemetrySection(snap)
	for i := 0; i < 25; i++ {
		if got := rep.FailureTable(); got != table {
			t.Fatalf("FailureTable not deterministic:\n%s\nvs\n%s", table, got)
		}
		if got := TelemetrySection(snap); got != section {
			t.Fatalf("TelemetrySection not deterministic:\n%s\nvs\n%s", section, got)
		}
	}
	// Alignment: the class column must start at the same offset in every
	// failure row, whatever the scan-name lengths.
	var cols []int
	for _, class := range []string{"timeout", "dial", "reset"} {
		for _, line := range strings.Split(strings.TrimRight(table, "\n"), "\n") {
			if i := strings.Index(line, " "+class+" "); i >= 0 {
				cols = append(cols, i)
			}
		}
	}
	if len(cols) != 3 {
		t.Fatalf("expected 3 failure rows in:\n%s", table)
	}
	for _, c := range cols[1:] {
		if c != cols[0] {
			t.Fatalf("failure rows not aligned (class column offsets %v):\n%s", cols, table)
		}
	}
	if !strings.Contains(section, "session/cache_hit") || !strings.Contains(section, "p50") {
		t.Fatalf("telemetry section missing expected content:\n%s", section)
	}
}
