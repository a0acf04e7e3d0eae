package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"tlsshortcuts/internal/study"
)

func TestAttributeSyntheticStacks(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{
			"crypto/internal/fips140/nistec.p256Sqr",
			"crypto/internal/fips140/ecdsa.signGeneric[go.shape.*crypto/internal/fips140/nistec.P256Point]",
			"crypto/ecdsa.SignASN1",
			"tlsshortcuts/internal/tlsserver.full",
		}, rowECDSASign},
		{[]string{
			"crypto/internal/fips140/nistec.p256PointAddAsm",
			"crypto/ecdsa.parseSignature", // neither signing nor verifying: keep walking
			"crypto/ecdsa.VerifyASN1",
			"crypto/x509.checkSignature",
			"tlsshortcuts/internal/pki.(*RootStore).Verify",
			"tlsshortcuts/internal/tlsclient.finishFull",
		}, rowECDSAVerify},
		{[]string{
			"crypto/internal/fips140/nistec.(*P256Point).ScalarBaseMult",
			"crypto/ecdh.(*nistCurve).NewPrivateKey",
			"tlsshortcuts/internal/keyex.deriveECDHE",
		}, rowECDH},
		{[]string{
			"math/big.nat.montgomery",
			"math/big.(*Int).Exp",
			"tlsshortcuts/internal/ffdh.(*Group).Public",
			"tlsshortcuts/internal/keyex.DHEKey",
		}, rowFFDH},
		{[]string{
			// An ffdh frame anywhere wins over an inner program frame.
			"tlsshortcuts/internal/drbg.(*Reader).Read",
			"tlsshortcuts/internal/ffdh.(*Group).PrivateFromSeed",
		}, rowFFDH},
		{[]string{
			"crypto/internal/fips140/aes/gcm.seal",
			"crypto/cipher.(*gcmFallback).Seal",
			"tlsshortcuts/internal/record.(*Conn).WriteRecord",
			"tlsshortcuts/internal/tlsclient.HandshakeInto",
		}, "record.cpu_s"},
		{[]string{
			"crypto/hmac.(*hmac).Sum",
			"tlsshortcuts/internal/prf.(*Expander).AppendPRF",
		}, "prf.cpu_s"},
		{[]string{"tlsshortcuts/internal/newpkg.Do"}, rowInternalMisc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, rowGC},
		{[]string{"runtime.futex", "runtime.schedule"}, rowOther},
		{nil, rowOther},
	}
	rowSet := map[string]bool{}
	for _, r := range cpuRows() {
		rowSet[r] = true
	}
	var samples []sample
	var wantTotal float64
	for i, c := range cases {
		got := attribute(c.stack)
		if got != c.want {
			t.Errorf("case %d: attribute = %s, want %s", i, got, c.want)
		}
		if !rowSet[got] {
			t.Errorf("case %d: %s is not a declared CPU row", i, got)
		}
		ns := int64(i+1) * 10_000_000
		samples = append(samples, sample{stack: c.stack, cpuNs: ns})
		wantTotal += float64(ns) / 1e9
	}

	rows, total := attributeAll(samples)
	if math.Abs(total-wantTotal) > 1e-9 {
		t.Fatalf("profile total %v, want %v", total, wantTotal)
	}
	var sum float64
	for _, v := range rows {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Fatalf("rows sum to %v, profile total %v", sum, total)
	}
	// Each sample is charged exactly once: a row holds exactly the
	// samples whose stacks map to it.
	for r, v := range rows {
		var want float64
		for _, s := range samples {
			if attribute(s.stack) == r {
				want += float64(s.cpuNs) / 1e9
			}
		}
		if math.Abs(v-want) > 1e-9 {
			t.Errorf("row %s = %v, want %v", r, v, want)
		}
	}
}

func TestSplitFunc(t *testing.T) {
	cases := []struct{ fn, pkg, name string }{
		{"tlsshortcuts/internal/keyex.(*Policy).epoch", "tlsshortcuts/internal/keyex", "epoch"},
		{"crypto/internal/fips140/ecdsa.Sign[go.shape.*crypto/internal/fips140/nistec.P256Point]",
			"crypto/internal/fips140/ecdsa", "Sign"},
		{"crypto/ecdsa.SignASN1.func1", "crypto/ecdsa", "SignASN1"},
		{"runtime.gcBgMarkWorker", "runtime", "gcBgMarkWorker"},
		{"main.main", "main", "main"},
	}
	for _, c := range cases {
		if pkg, name := splitFunc(c.fn); pkg != c.pkg || name != c.name {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", c.fn, pkg, name, c.pkg, c.name)
		}
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParseCPUProfile decodes a real runtime/pprof profile: the decoder
// must find the samples, and the attributed rows must sum to the total.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded from 300ms of CPU")
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "tlsshortcuts/perfbench.burn" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sample names the burning function")
	}
	rows, total := attributeAll(samples)
	var sum float64
	for _, v := range rows {
		sum += v
	}
	if total <= 0 || math.Abs(sum-total) > 1e-9 {
		t.Fatalf("rows sum %v, total %v", sum, total)
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage profile decoded without error")
	}
}

// TestScanFailuresIgnoresAlerts: failed_frac counts only connections
// whose final attempt ended in a dial, timeout or reset class.
func TestScanFailuresIgnoresAlerts(t *testing.T) {
	ds := &study.Dataset{
		Dials: 1000,
		Failures: []study.FailureCount{
			{Scan: "ticket", Class: "dial", Count: 7},
			{Scan: "dhe", Class: "alert", Count: 120}, // forced-suite alert: a measurement
			{Scan: "ecdhe-pair", Class: "reset", Count: 5},
			{Scan: "lifetime-id", Class: "timeout", Count: 3},
			{Scan: "ticket-pair", Class: "protocol", Count: 9},
		},
	}
	if got := scanFailures(ds); got != 15 {
		t.Fatalf("scanFailures = %d, want 15 (dial 7 + reset 5 + timeout 3)", got)
	}
	r := &childResult{Conns: ds.Dials, Failed: scanFailures(ds), WallS: 1, CPUS: 1, PeakRSSMB: 1}
	st := endToEndStats([]*childResult{r}, []float64{0.1})
	if got := st["failed_frac"].Median; got != 0.015 {
		t.Errorf("failed_frac = %v, want 0.015", got)
	}
	if got := st["ok_frac"].Median; got != 0.985 {
		t.Errorf("ok_frac = %v, want 0.985", got)
	}
	if got := st["conns_per_s"].Median; got != 985 {
		t.Errorf("conns_per_s = %v, want 985 completed per second", got)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if d.unit == "" || len(d.unit) > 16 {
			t.Errorf("metric %q has unit %q", d.name, d.unit)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "cpu/s", "x:y"} {
		if metricName.MatchString(bad) {
			t.Errorf("pattern accepts %q", bad)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the code's metric and workload
// lists identical to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, code %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) != 3 {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark runs 3", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
