package main

import "regexp"

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract: an untraced run prints exactly endToEnd, a
// traced run exactly perLayer(), and BENCHMARK.json declares the same
// names (TestMetricListsMatchBenchmarkJSON pins the two together).
type metricDef struct {
	name, unit string
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEnd is what an untraced run reports.
var endToEnd = []metricDef{
	{"conns_per_s", "1/s"},
	{"cpu_ms_per_kconn", "ms/kconn"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

// internalPkgs are the program's packages under internal/. A CPU sample
// whose innermost program frame lies in one of them is charged to
// "<pkg>.cpu_s"; a package not listed here lands on internal.other.cpu_s,
// so the rows still sum to the profile total.
var internalPkgs = []string{
	"attacker", "cryptanalysis", "drbg", "faults", "ffdh", "keyex", "obsv",
	"perf", "pki", "population", "prf", "record", "scanner", "session",
	"simclock", "simnet", "study", "telemetry", "ticket", "tlsclient",
	"tlsserver", "traffic", "vulnwindow", "wire",
}

// CPU rows outside the one-row-per-package scheme.
const (
	rowECDSASign    = "tlsserver.ecdsa_sign.cpu_s"
	rowECDSAVerify  = "tlsclient.ecdsa_verify.cpu_s"
	rowECDH         = "keyex.ecdh.cpu_s"
	rowFFDH         = "ffdh.cpu_s"
	rowGC           = "runtime.gc.cpu_s"
	rowOther        = "runtime.other.cpu_s"
	rowInternalMisc = "internal.other.cpu_s"
	rowProfileTotal = "profile.cpu_s"
)

// cpuRows lists every CPU attribution row; each profile sample lands on
// exactly one of them.
func cpuRows() []string {
	rows := []string{rowECDSASign, rowECDSAVerify, rowECDH}
	for _, p := range internalPkgs {
		rows = append(rows, p+".cpu_s") // includes ffdh.cpu_s
	}
	return append(rows, rowInternalMisc, rowGC, rowOther)
}

// layerCounters are the traced run's non-CPU per-layer metrics.
var layerCounters = []metricDef{
	{"keyex.cache_hit_rate", "frac"},
	{"scanner.lifetime_s", "s"},
	{"scanner.daily_s", "s"},
	{"scanner.xdomain_s", "s"},
	{"scanner.utilization", "frac"},
	{"scanner.handshakes", "count"},
	{"scanner.retry_frac", "frac"},
	{"scanner.handshake_p50_us", "us"},
	{"scanner.handshake_p99_us", "us"},
	{"sched.idle_frac", "frac"},
	{"traffic.day_s", "s"},
	{"traffic.finalize_s", "s"},
	{"traffic.visits", "count"},
	{"traffic.resumed_frac", "frac"},
	{"traffic.cross_host_frac", "frac"},
	{"session.cache_hit_rate", "frac"},
	{"ticket.open_ok_rate", "frac"},
	{"ticket.stek_rotations", "count"},
	{"simnet.dials", "count"},
	{"runtime.allocs_per_conn", "count"},
	{"runtime.alloc_bytes_per_conn", "B"},
	{"runtime.gc_cycles", "count"},
	{"population.build_s", "s"},
	{"study.report_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"failed_frac", "frac"},
	{rowProfileTotal, "s"},
}

// perLayer is what a traced run reports: every CPU row, then the
// counters and spans.
func perLayer() []metricDef {
	var out []metricDef
	for _, r := range cpuRows() {
		out = append(out, metricDef{r, "s"})
	}
	return append(out, layerCounters...)
}
