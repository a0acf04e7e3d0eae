package study_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tlsshortcuts/internal/cryptanalysis"
	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/obsv"
	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/traffic"
)

var regenGolden = flag.Bool("regen-golden", false, "rewrite the golden dataset hash from the clean 8-worker campaign")

var goldenPath = filepath.Join("testdata", "campaign_200x8_seed7.sha256")

// campaign is one matrix family's base configuration; the matrix varies
// its worker count and shard split.
type campaign struct {
	name string
	opts study.Options
	// observe attaches a telemetry registry and a flight-recorder
	// journal to every run of the campaign.
	observe bool
}

var (
	// clean is the golden campaign: small enough to run many times,
	// large enough to exercise every scan type, resumption path and
	// cache.
	clean = campaign{name: "clean", opts: study.Options{ListSize: 200, Days: 8, Seed: 7}}
	// cleanObserved attaches a telemetry registry and a journal;
	// cleanZeroPlan supplies a zero fault plan (all rates zero, so it
	// compiles to no plan). Neither may perturb the golden bytes.
	cleanObserved = campaign{name: "clean+observed", observe: true,
		opts: study.Options{ListSize: 200, Days: 8, Seed: 7}}
	cleanZeroPlan = campaign{name: "clean+zero-plan",
		opts: study.Options{ListSize: 200, Days: 8, Seed: 7, Faults: &faults.Options{Seed: 99}}}
	cleanTraffic = campaign{name: "clean+traffic",
		opts: study.Options{ListSize: 200, Days: 8, Seed: 7, Traffic: &traffic.Options{Users: 40}}}
	// faulted runs against the full fault stack, stalls included, with the
	// scanner's default deadline.
	faulted = campaign{name: "faulted", observe: true, opts: study.Options{ListSize: 120, Days: 5, Seed: 7,
		Faults: &faults.Options{Seed: 11, Refuse: 0.06, Reset: 0.03, Stall: 0.01, Flap: 0.05, Churn: 0.08, ChurnMaxDays: 3}}}
	weak = campaign{name: "weak", opts: study.Options{ListSize: 200, Days: 8, Seed: 7, WeakCrypto: true}}
	// trafficOn is busy enough that every browser policy resumes, evicts
	// and crosses hostnames.
	trafficOn = campaign{name: "traffic",
		opts: study.Options{ListSize: 120, Days: 4, Seed: 11, Traffic: &traffic.Options{Users: 60}}}
)

// run is one campaign's output, reduced to what the matrix compares.
type run struct {
	ds   *study.Dataset
	hash string // sha256 of the dataset's JSON
	// The rest is set only for observed campaigns: the telemetry
	// snapshot's deterministic view, the journal's DeterministicView
	// (monolithic and single-shard runs), and the journal as normalized
	// by MergeJournalsDeterministic (every run).
	snap *telemetry.Snapshot
	view []obsv.Event
	norm []obsv.Event
}

// runs memoizes every campaign the tests in this file have run in this
// process, so each distinct configuration runs once and a -run filter
// runs only the campaigns its tests need.
var runs = map[string]*run{}

func hashJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// get runs c at the given worker count, over the whole list (shard nil)
// or one shard of it.
func (c campaign) get(t *testing.T, workers int, shard *study.ShardSpec) *run {
	t.Helper()
	o := c.opts
	o.Workers = workers
	o.Shard = shard
	label := ""
	if shard != nil {
		label = fmt.Sprintf("%d/%d", shard.Index, shard.Count)
	}
	key := fmt.Sprintf("%s w%d %s", c.name, workers, label)
	if r, ok := runs[key]; ok {
		return r
	}
	var buf bytes.Buffer
	var j *obsv.Journal
	if c.observe {
		o.Telemetry = telemetry.NewRegistry()
		j = obsv.NewJournal(&buf)
		j.SetShard(label)
		j.CampaignStart(o.ListSize, o.Days, o.Seed, o.Workers, label)
		o.Observer = j
	}
	ds, err := study.Run(o)
	if err != nil {
		t.Fatalf("Run %s: %v", key, err)
	}
	r := &run{ds: ds, hash: hashJSON(t, ds)}
	if c.observe {
		j.CampaignEnd(r.hash)
		if err := j.Close(); err != nil {
			t.Fatalf("journal %s: %v", key, err)
		}
		events, err := obsv.DecodeEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := obsv.ValidateJournal(events); err != nil {
			t.Fatalf("journal %s: %v", key, err)
		}
		r.snap = o.Telemetry.Snapshot().Deterministic()
		r.view = obsv.DeterministicView(events)
		if r.norm, err = obsv.MergeJournalsDeterministic(events); err != nil {
			t.Fatal(err)
		}
	}
	runs[key] = r
	return r
}

func mono(c campaign, workers int) func(*testing.T) *run {
	return func(t *testing.T) *run { return c.get(t, workers, nil) }
}

func shard(c campaign, workers, index, count int) func(*testing.T) *run {
	return func(t *testing.T) *run { return c.get(t, workers, &study.ShardSpec{Index: index, Count: count}) }
}

// shards runs c as n independent shards and merges their datasets and,
// for an observed campaign, their journals.
func shards(c campaign, workers, n int) func(*testing.T) *run {
	return func(t *testing.T) *run {
		t.Helper()
		parts := make([]*study.Dataset, n)
		views := make([][]obsv.Event, n)
		for i := range parts {
			r := c.get(t, workers, &study.ShardSpec{Index: i, Count: n})
			parts[i], views[i] = r.ds, r.view
		}
		merged, err := study.MergeDatasets(parts...)
		if err != nil {
			t.Fatalf("MergeDatasets(%d shards of %s): %v", n, c.name, err)
		}
		r := &run{ds: merged, hash: hashJSON(t, merged)}
		if c.observe {
			if r.norm, err = obsv.MergeJournalsDeterministic(views...); err != nil {
				t.Fatalf("merging %d shard journals of %s: %v", n, c.name, err)
			}
		}
		return r
	}
}

// withoutTraffic is got's run with the Traffic section stripped from its
// dataset, after checking the plane really ran.
func withoutTraffic(got func(*testing.T) *run) func(*testing.T) *run {
	return func(t *testing.T) *run {
		t.Helper()
		r := got(t)
		if r.ds.Traffic == nil || r.ds.Traffic.Conns() == 0 {
			t.Fatal("traffic plane did not run")
		}
		ds := *r.ds
		ds.Traffic = nil
		return &run{ds: &ds, hash: hashJSON(t, &ds)}
	}
}

// golden is the committed 200×8 seed-7 dataset hash. With -regen-golden
// it is the clean 8-worker run's hash, written back to testdata.
func golden(t *testing.T) *run {
	t.Helper()
	if *regenGolden {
		r := clean.get(t, 8, nil)
		if err := os.WriteFile(goldenPath, []byte(r.hash+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return r
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -regen-golden): %v", err)
	}
	return &run{hash: strings.TrimSpace(string(b))}
}

// same requires got to reproduce want: the dataset bytes, and for two
// observed runs the normalized journal.
func same(t *testing.T, got, want *run) {
	t.Helper()
	if got.hash != want.hash {
		t.Fatalf("dataset differs:\n  got  %s\n  want %s", got.hash, want.hash)
	}
	if got.norm == nil || want.norm == nil {
		return
	}
	a, _ := json.MarshalIndent(got.norm, "", " ")
	b, _ := json.MarshalIndent(want.norm, "", " ")
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Fatalf("normalized journal differs at line %d:\n  got  %s\n  want %s", i, la[i], lb[i])
		}
	}
	if len(la) != len(lb) {
		t.Fatalf("normalized journal differs in length: %d vs %d lines", len(la), len(lb))
	}
}

// TestCampaignDeterminism pins the clean 8-worker campaign to the
// committed golden hash. A mismatch means a change perturbed measured
// results. If the change is intentional, regenerate with:
//
//	go test ./internal/study -run TestCampaignDeterminism -regen-golden
func TestCampaignDeterminism(t *testing.T) {
	same(t, clean.get(t, 8, nil), golden(t))
}

// TestWeakCryptoOffMatchesGolden: with WeakCrypto off (the default) the
// cryptanalysis pass does not run, Dataset.Crypt stays nil (omitted
// from JSON), and the campaign is the golden one.
func TestWeakCryptoOffMatchesGolden(t *testing.T) {
	r := clean.get(t, 8, nil)
	if r.ds.Crypt != nil {
		t.Error("WeakCrypto off, yet the dataset carries cryptanalysis findings")
	}
	same(t, r, golden(t))
}

// TestEmptyFaultPlanMatchesGolden: an explicitly supplied zero fault
// plan leaves the golden bytes, so the fault machinery (plan lookup,
// taxonomy fields, deadline arming, retry scaffolding) is unobservable
// on a clean network.
func TestEmptyFaultPlanMatchesGolden(t *testing.T) {
	same(t, cleanZeroPlan.get(t, 8, nil), golden(t))
}

// TestTelemetryObservationallyInert: observers observe, never perturb.
// Part 1: the golden campaign with a registry and a journal attached
// reproduces the golden hash, and both saw the campaign. Part 2: under a
// fixed fault plan the deterministic view of the telemetry snapshot
// (everything outside wall/) is identical at 3 and 13 workers, and it
// records the faults.
func TestTelemetryObservationallyInert(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three campaigns")
	}
	r := cleanObserved.get(t, 8, nil)
	same(t, r, golden(t))
	checkObserved(t, r)

	a, b := faulted.get(t, 3, nil).snap, faulted.get(t, 13, nil).snap
	if !reflect.DeepEqual(a, b) {
		ja, _ := json.MarshalIndent(a, "", "  ")
		jb, _ := json.MarshalIndent(b, "", "  ")
		t.Fatalf("deterministic telemetry differs across worker counts:\n--- 3 workers ---\n%s\n--- 13 workers ---\n%s", ja, jb)
	}
	checkFaultCounters(t, a)
}

// TestFaultCampaignDeterministicAcrossWorkers: a fixed non-empty fault
// plan, stalls included, produces a byte-identical dataset at 3 and 13
// workers, because every fault decision, retry backoff and entropy
// stream keys on the probe's identity rather than on scheduling order.
func TestFaultCampaignDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two faulted campaigns")
	}
	a, b := faulted.get(t, 3, nil), faulted.get(t, 13, nil)
	if a.hash != b.hash {
		t.Fatalf("same fault plan, different datasets:\n  3 workers  %s\n  13 workers %s", a.hash, b.hash)
	}
	checkFaulted(t, a.ds)
}

type row struct {
	name string
	// long rows skip under -short, as the tests they replace did.
	long bool
	got  func(*testing.T) *run
	// want is the run got must reproduce (nil: got is the family's
	// reference and is only checked).
	want  func(*testing.T) *run
	check func(*testing.T, *run)
}

// TestDeterminismMatrix extends the tests above across worker counts,
// shard splits and the traffic plane. Each family's rows must reproduce
// one dataset, byte for byte, whatever the worker count, however the
// list is sharded, and whether the traffic plane ran. Subtests are named
// <family>-<row>, so a -run pattern such as
// 'TestDeterminismMatrix/^weak-' picks rows, and only the campaigns
// those rows need are run. The clean family must reproduce the committed
// golden hash (see TestCampaignDeterminism).
func TestDeterminismMatrix(t *testing.T) {
	matrix := []struct {
		family string
		rows   []row
	}{
		{"clean", []row{
			{name: "w3", long: true, got: mono(clean, 3), want: golden},
			{name: "w13", long: true, got: mono(clean, 13), want: golden},
			{name: "traffic", got: withoutTraffic(mono(cleanTraffic, 8)), want: golden},
			{name: "shards=1", got: shards(clean, 8, 1), want: golden},
			{name: "shards=3", got: shards(clean, 8, 3), want: golden},
			{name: "shards=5", got: shards(clean, 8, 5), want: golden},
			{name: "shard1of3-w3", long: true, got: shard(clean, 3, 1, 3), want: shard(clean, 8, 1, 3)},
		}},
		{"faulted", []row{
			{name: "shards=2", long: true, got: shards(faulted, 4, 2), want: mono(faulted, 3)},
		}},
		{"weak", []row{
			{name: "w3", got: mono(weak, 3), check: checkWeak},
			{name: "w13", long: true, got: mono(weak, 13), want: mono(weak, 3)},
			{name: "shards=2", long: true, got: shards(weak, 8, 2), want: mono(weak, 3)},
		}},
		{"traffic", []row{
			{name: "w3", got: mono(trafficOn, 3), check: checkTraffic},
			{name: "w13", got: mono(trafficOn, 13), want: mono(trafficOn, 3)},
			{name: "shards=2", got: shards(trafficOn, 8, 2), want: mono(trafficOn, 3)},
		}},
	}
	for _, fam := range matrix {
		for _, r := range fam.rows {
			t.Run(fam.family+"-"+r.name, func(t *testing.T) {
				if r.long && testing.Short() {
					t.Skip("extra campaigns; run without -short")
				}
				got := r.got(t)
				if r.want != nil {
					same(t, got, r.want(t))
				}
				if r.check != nil {
					r.check(t, got)
				}
			})
		}
	}
}

// checkObserved: the attached registry and journal saw the campaign.
func checkObserved(t *testing.T, r *run) {
	t.Helper()
	c := r.snap.Counters
	if c[telemetry.CounterProbes] == 0 {
		t.Error("registry recorded no probes")
	}
	if c["simnet/dials"] != c[telemetry.CounterHandshakesStarted] {
		t.Errorf("dials (%d) != handshakes started (%d)", c["simnet/dials"], c[telemetry.CounterHandshakesStarted])
	}
	if got := c[telemetry.CounterDaysCompleted]; got != uint64(r.ds.Days) {
		t.Errorf("days_completed = %d, want %d", got, r.ds.Days)
	}
	days := 0
	for _, ev := range r.view {
		if ev.Type == obsv.EventPhaseEnd && ev.Phase == "day" {
			days++
		}
	}
	if days != r.ds.Days {
		t.Errorf("journal has %d day phase_end spans, want %d", days, r.ds.Days)
	}
}

// checkFaulted: the fault plan showed up in the dataset and its failure
// table.
func checkFaulted(t *testing.T, ds *study.Dataset) {
	t.Helper()
	if len(ds.Failures) == 0 {
		t.Error("faulted campaign recorded no failures")
	}
	if ds.FaultPlan == nil || ds.FaultPlan.Seed != 11 {
		t.Errorf("dataset did not record the fault plan: %+v", ds.FaultPlan)
	}
	if len(ds.MissedDays) == 0 {
		t.Error("faulted campaign recorded no missed ticket-scan days")
	}
	table := study.BuildReport(ds).FailureTable()
	if !strings.Contains(table, "fault plan: seed 11") {
		t.Errorf("failure table missing the fault plan line:\n%s", table)
	}
	if strings.Contains(table, "no scan failures recorded") {
		t.Errorf("failure table claims a clean run:\n%s", table)
	}
}

// checkFaultCounters: the faulted campaign's telemetry records retries,
// fault kinds, and stalls that timed out (timeout-classed retries).
func checkFaultCounters(t *testing.T, snap *telemetry.Snapshot) {
	t.Helper()
	c := snap.Counters
	if c[telemetry.CounterRetries] == 0 {
		t.Error("faulted campaign recorded no retries")
	}
	if c[telemetry.CounterRetryClassPrefix+string(faults.ClassTimeout)] == 0 {
		t.Error("no timeout-classed retries: stalls never timed out")
	}
	foundFault := false
	for name := range c {
		if strings.HasPrefix(name, "simnet/faults/") {
			foundFault = true
		}
	}
	if !foundFault {
		t.Errorf("no simnet fault-kind counters recorded: %v", c)
	}
}

// checkWeak: every cryptanalysis probe fires and the measured yield
// lands in the calibration band. Hebrok et al. passively decrypted 1.9%
// of the Tranco 100k; the weak profile fractions reproduce that rate
// within 2x on the trusted core.
func checkWeak(t *testing.T, r *run) {
	ds := r.ds
	c := ds.Crypt
	if c == nil {
		t.Fatal("WeakCrypto campaign produced no cryptanalysis findings")
	}
	if len(c.Cracked) == 0 {
		t.Error("no weak STEKs cracked")
	}
	if shared := cryptanalysis.SharedKeyNames(c.KeyNames, ds.Operators); len(shared) == 0 {
		t.Error("no shared key names across operators (weakseed-cdn and sharedname-host share a seed)")
	}
	if reuse := cryptanalysis.KeystreamReuse(c.IVs, c.KeyNames); len(reuse) == 0 {
		t.Error("no keystream reuse detected (fixediv-cloud seals with a fixed IV)")
	}
	if len(c.WeakPrime) == 0 {
		t.Error("no weak FFDH primes observed (exportdh-legacy serves the export group)")
	}

	// Measured yield: actual decrypted traffic, not just weak-looking keys.
	y := c.Yield
	if y.Connections == 0 || y.Domains == 0 || y.Bytes == 0 {
		t.Fatalf("replay decrypted nothing: %+v", y)
	}
	if y.Attempted < y.Connections {
		t.Errorf("yield accounting broken: %+v", y)
	}
	for d := range c.Cracked {
		if _, ok := ds.Ranks[d]; !ok {
			t.Errorf("cracked domain %s not in the trusted core", d)
		}
	}
	frac := float64(y.Domains) / float64(len(ds.TrustedCore))
	if frac < 0.019/2 || frac > 0.019*2 {
		t.Errorf("decryptable fraction %.4f (%d/%d) outside [%.4f, %.4f]",
			frac, y.Domains, len(ds.TrustedCore), 0.019/2, 0.019*2)
	}

	out := study.BuildReport(ds).String()
	if !strings.Contains(out, "Cryptanalysis") {
		t.Error("report missing the cryptanalysis section")
	}
	if !strings.Contains(out, "replay yield") {
		t.Error("report missing the replay yield line")
	}
}

// checkTraffic sanity-checks the traffic plane's measurements: visits
// completed, sessions resumed via both mechanisms, chains closed with
// mass conservation (chain lengths sum to completed connections), and
// the window join found real in-window traffic.
func checkTraffic(t *testing.T, r *run) {
	ds := r.ds
	tr := ds.Traffic
	if tr == nil {
		t.Fatal("traffic campaign produced no Traffic results")
	}
	if tr.Days != 4 || tr.Users != 60 {
		t.Fatalf("Traffic identity = %d users / %d days, want 60/4", tr.Users, tr.Days)
	}
	var users int
	var conns, resumed, viaTicket, viaID, full, chains, lenMass uint64
	for i := range tr.Policies {
		p := &tr.Policies[i]
		users += p.Users
		conns += p.Conns
		resumed += p.Resumed
		viaTicket += p.ResumedTicket
		viaID += p.ResumedID
		full += p.Full
		chains += p.Chains
		for _, n := range p.ChainLen {
			lenMass += n
		}
		if p.Full+p.Resumed != p.Conns {
			t.Errorf("policy %s: full %d + resumed %d != conns %d",
				p.Policy.Name, p.Full, p.Resumed, p.Conns)
		}
	}
	if users != 60 {
		t.Errorf("per-policy user counts sum to %d, want 60", users)
	}
	if conns == 0 || resumed == 0 || viaTicket == 0 || viaID == 0 {
		t.Errorf("want nonzero conns/resumed/ticket/id, got %d/%d/%d/%d",
			conns, resumed, viaTicket, viaID)
	}
	// Every chain starts at exactly one full handshake and every chain
	// closes by campaign end, so chains == full handshakes and the
	// length histogram's mass is one entry per chain.
	if chains == 0 || chains != full || lenMass != chains {
		t.Errorf("chains %d (histogram mass %d) != full handshakes %d",
			chains, lenMass, full)
	}
	j := tr.Join
	if j == nil {
		t.Fatal("traffic results missing the window join")
	}
	if j.Connections.Total != conns {
		t.Errorf("join total %d != completed conns %d", j.Connections.Total, conns)
	}
	if j.Connections.InWindow == 0 || j.Bytes.InWindow == 0 {
		t.Errorf("want nonzero in-window traffic, got %d conns / %d bytes",
			j.Connections.InWindow, j.Bytes.InWindow)
	}
	rep := study.BuildReport(ds).String()
	if !strings.Contains(rep, "Traffic: measured exposure") {
		t.Error("report is missing the Traffic section")
	}
	if !strings.Contains(rep, "resumption tracking chains") {
		t.Error("report is missing the tracking-chain section")
	}
}
