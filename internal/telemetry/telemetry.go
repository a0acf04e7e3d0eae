// Package telemetry is the campaign engine's zero-dependency
// observability layer: a Registry of atomic counters and fixed-bucket
// duration histograms that every pipeline stage (scanner, simnet,
// session/ticket/keyex, study) reports through, snapshot-able at any
// moment, plus the Span record study.Run delivers per campaign phase
// (inside a PhaseEvent; the obsv journal writes it as phase_end).
//
// The contract, in the house style of internal/faults:
// telemetry observes, never perturbs. A nil *Registry (and the nil
// *Counter / *Histogram handles it hands out) is valid and every method
// on it is a no-op, so uninstrumented runs take the existing code paths
// untouched. An enabled registry only adds atomic increments on the
// side — it draws no entropy and reads no clock the measurement depends
// on — and TestTelemetryObservationallyInert in internal/study proves
// the golden dataset hash is byte-identical either way.
//
// Metric names are "/"-separated. Names under the "wall/" prefix carry
// wall-clock or scheduling-dependent values (real latencies, sweep
// evictions, global-cache fills); every other metric is a pure function
// of (seed, fault plan, probe schedule) and must replay identically for
// any worker count. Snapshot.Deterministic strips the wall/ subtree so
// tests can pin exactly that property.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// WallPrefix marks metrics whose values depend on wall-clock time or
// goroutine scheduling. Snapshot.Deterministic drops this subtree.
const WallPrefix = "wall/"

// Names of the metrics shared across packages: the scanner writes them,
// study's span emitter and the obsv /progress view read them.
const (
	// CounterProbes counts logical probes (one per scanner.connect
	// call, however many retry attempts it takes).
	CounterProbes = "scanner/probes"
	// CounterProbeFailures counts probes whose final attempt failed.
	CounterProbeFailures = "scanner/probe_failures"
	// CounterHandshakesStarted counts individual connection attempts,
	// including retries.
	CounterHandshakesStarted = "scanner/handshakes_started"
	// CounterHandshakesCompleted counts attempts that finished the
	// handshake successfully.
	CounterHandshakesCompleted = "scanner/handshakes_completed"
	// CounterRetries counts retry attempts (CounterHandshakesStarted
	// minus first attempts).
	CounterRetries = "scanner/retries"
	// CounterBusyNanos accumulates wall-clock nanoseconds workers spent
	// inside probes; with phase wall time it yields worker utilization.
	CounterBusyNanos = "wall/scanner/busy_ns"
	// CounterDaysCompleted counts finished scan days; obsv /progress
	// renders it as the campaign's current day.
	CounterDaysCompleted = "study/days_completed"
	// CounterSTEKRotations counts observed ticket-key rotations (exactly
	// one per epoch transition per manager, whatever the interleaving).
	CounterSTEKRotations = "ticket/stek_rotations"

	// Traffic-plane counters: simulated-user visits driven by
	// internal/traffic. All are deterministic sums over per-user
	// sequential histories, so they survive Snapshot.Deterministic().

	// CounterTrafficVisits counts completed-or-failed user visits.
	CounterTrafficVisits = "traffic/visits"
	// CounterTrafficResumed counts visits that resumed a prior session
	// (by ID or ticket).
	CounterTrafficResumed = "traffic/resumed"
	// CounterTrafficFailures counts visits whose connection failed.
	CounterTrafficFailures = "traffic/failures"
	// CounterTrafficBytes accumulates application bytes exchanged by
	// user visits (request plus response).
	CounterTrafficBytes = "traffic/bytes"
	// CounterTrafficCrossHost counts resumptions accepted under a
	// different hostname of the same operator cache group.
	CounterTrafficCrossHost = "traffic/cross_host"
)

// Shared counter-name prefixes: instrumentation sites append a dynamic
// suffix (error class, fault kind), and readers — the obsv progress
// endpoint, the flight-recorder's per-phase deltas — select by prefix.
const (
	// CounterErrorPrefix + faults.ErrClass counts probes whose final
	// attempt failed with that class.
	CounterErrorPrefix = "scanner/errors/"
	// CounterRetryClassPrefix + faults.ErrClass counts retry attempts
	// provoked by that transient class.
	CounterRetryClassPrefix = "scanner/retries/"
	// CounterFaultPrefix + faults.Kind counts injected network faults.
	CounterFaultPrefix = "simnet/faults/"
	// CounterTrafficPolicyPrefix + policy name counts user visits under
	// that browser policy; the same prefix with "/resumed" appended to
	// the policy counts its resumptions.
	CounterTrafficPolicyPrefix = "traffic/policy/"
	// HistTrafficChainPrefix + policy name is the per-policy histogram
	// of resumption tracking-chain durations in virtual time.
	HistTrafficChainPrefix = "traffic/chain_vtime/"
)

// Counter is a monotonically increasing atomic counter. A nil Counter
// no-ops on writes and reads as zero, so instrumentation sites never
// need a registry nil-check of their own.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// bucketBounds is the fixed upper-bound ladder every histogram shares:
// powers of 4 from 1µs to ~4.8h, plus an implicit overflow bucket.
// Fixed buckets keep Observe allocation-free and make histograms from
// different runs directly comparable bucket-by-bucket.
var bucketBounds = func() [18]time.Duration {
	var b [18]time.Duration
	d := time.Microsecond
	for i := range b {
		b[i] = d
		d *= 4
	}
	return b
}()

const numBuckets = len(bucketBounds) + 1

// Histogram is a fixed-bucket duration histogram. Like Counter, a nil
// Histogram is a valid no-op receiver.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	h.buckets[bucketIndex(d)].Add(1)
}

func bucketIndex(d time.Duration) int {
	for i, b := range bucketBounds {
		if d <= b {
			return i
		}
	}
	return len(bucketBounds)
}

// Registry holds named counters and histograms. The zero value is not
// usable; call NewRegistry. A nil *Registry is valid everywhere and
// hands out nil (no-op) instruments.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Value reads the named counter without creating it.
func (r *Registry) Value(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	return c.Value()
}

// BucketCount is one non-empty histogram bucket in a snapshot. LE is
// the bucket's inclusive upper bound; LE == -1 marks the overflow
// bucket (observations above the largest bound).
type BucketCount struct {
	LE time.Duration `json:"le_ns"`
	N  uint64        `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of one histogram. Only
// non-empty buckets are kept, in ascending bound order.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	Max     time.Duration `json:"max_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average observed duration, or 0 when empty.
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile
// (0 < q <= 1): the bound of the bucket the quantile falls in, or Max
// for the overflow bucket. Coarse by design — the ladder is fixed so
// estimates stay comparable across runs.
func (h HistogramSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.N
		if cum >= target {
			if b.LE < 0 {
				return h.Max
			}
			return b.LE
		}
	}
	return h.Max
}

// Snapshot is an immutable copy of a registry's state: mutating the
// registry after the call never changes an already-taken snapshot.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields
// an empty snapshot. Counters written concurrently with the snapshot
// land in it or don't, per instrument; a snapshot of a quiesced
// registry is exact.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Count: h.count.Load(),
			Sum:   time.Duration(h.sum.Load()),
			Max:   time.Duration(h.max.Load()),
		}
		for i := range h.buckets {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			le := time.Duration(-1)
			if i < len(bucketBounds) {
				le = bucketBounds[i]
			}
			hs.Buckets = append(hs.Buckets, BucketCount{LE: le, N: n})
		}
		s.Histograms[name] = hs
	}
	return s
}

// Deterministic returns a copy of the snapshot without the wall/
// subtree. What remains must be a pure function of (seed, fault plan,
// probe schedule) — identical for any worker count — which is exactly
// what TestTelemetryObservationallyInert compares across runs.
func (s *Snapshot) Deterministic() *Snapshot {
	out := &Snapshot{
		Counters:   map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if s == nil {
		return out
	}
	for name, v := range s.Counters {
		if !strings.HasPrefix(name, WallPrefix) {
			out.Counters[name] = v
		}
	}
	for name, h := range s.Histograms {
		if !strings.HasPrefix(name, WallPrefix) {
			out.Histograms[name] = h
		}
	}
	return out
}

// MergeHistograms sums every histogram whose name starts with prefix
// into one combined snapshot (e.g. all wall/scanner/latency/* series
// into a single campaign-wide latency distribution).
func (s *Snapshot) MergeHistograms(prefix string) HistogramSnapshot {
	var out HistogramSnapshot
	if s == nil {
		return out
	}
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, prefix) {
			out = addHistogramSnapshots(out, h)
		}
	}
	return out
}

// MergeSnapshots sums per-shard telemetry snapshots into one
// campaign-wide view: counters add, histograms combine bucket-by-bucket
// (the fixed ladder makes buckets from different runs directly
// comparable — the same alignment MergeHistograms relies on), Max takes
// the largest shard's. Merging a single snapshot returns a deep copy.
func MergeSnapshots(shards ...*Snapshot) *Snapshot {
	out := &Snapshot{
		Counters:   map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, s := range shards {
		if s == nil {
			continue
		}
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, h := range s.Histograms {
			out.Histograms[name] = addHistogramSnapshots(out.Histograms[name], h)
		}
	}
	return out
}

// MergeSnapshotsKeyed merges per-shard snapshots into one cross-shard
// view the way a live aggregator needs it: metrics outside the wall/
// subtree sum exactly as MergeSnapshots (they are deterministic and
// shard-additive), but wall/ metrics — real latencies, busy time,
// cache-fill counts — are per-process observations that would be
// meaningless summed across machines, so each shard's wall subtree is
// kept separate under "wall/<key>/<rest>". Keys must be unique.
func MergeSnapshotsKeyed(shards map[string]*Snapshot) *Snapshot {
	det := make([]*Snapshot, 0, len(shards))
	for _, s := range shards {
		det = append(det, s.Deterministic())
	}
	out := MergeSnapshots(det...)
	for key, s := range shards {
		if s == nil {
			continue
		}
		for name, v := range s.Counters {
			if strings.HasPrefix(name, WallPrefix) {
				out.Counters[WallPrefix+key+"/"+name[len(WallPrefix):]] = v
			}
		}
		for name, h := range s.Histograms {
			if strings.HasPrefix(name, WallPrefix) {
				out.Histograms[WallPrefix+key+"/"+name[len(WallPrefix):]] = h
			}
		}
	}
	return out
}

// PrefixCounters returns the counters under prefix, keyed by the name
// with the prefix stripped (e.g. PrefixCounters(CounterErrorPrefix)
// yields failure counts by error class). Zero-valued counters are
// omitted, matching what a delta reader wants.
func (s *Snapshot) PrefixCounters(prefix string) map[string]uint64 {
	if s == nil {
		return nil
	}
	var out map[string]uint64
	for name, v := range s.Counters {
		if v == 0 || !strings.HasPrefix(name, prefix) {
			continue
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[name[len(prefix):]] = v
	}
	return out
}

// addHistogramSnapshots combines two snapshots of the shared bucket
// ladder, preserving ascending bound order with overflow (-1) last.
func addHistogramSnapshots(a, b HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Max:   a.Max,
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	byLE := map[time.Duration]uint64{}
	for _, bc := range a.Buckets {
		byLE[bc.LE] += bc.N
	}
	for _, bc := range b.Buckets {
		byLE[bc.LE] += bc.N
	}
	for le, n := range byLE {
		out.Buckets = append(out.Buckets, BucketCount{LE: le, N: n})
	}
	sort.Slice(out.Buckets, func(i, j int) bool {
		x, y := out.Buckets[i].LE, out.Buckets[j].LE
		if x < 0 {
			return false
		}
		if y < 0 {
			return true
		}
		return x < y
	})
	return out
}

// Render formats the snapshot for humans: counters then histograms,
// keys sorted, columns aligned, each line indented two spaces. The
// output is deterministic for a given snapshot regardless of map
// iteration order.
func (s *Snapshot) Render() string {
	if s == nil || (len(s.Counters) == 0 && len(s.Histograms) == 0) {
		return "  (no telemetry recorded)\n"
	}
	var b strings.Builder

	names := make([]string, 0, len(s.Counters))
	width := 0
	for name := range s.Counters {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-*s %12d\n", width, name, s.Counters[name])
	}

	names = names[:0]
	width = 0
	for name := range s.Histograms {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "  %-*s %12d  p50 %-10v p99 %-10v max %v\n",
			width, name, h.Count, h.Quantile(0.50), h.Quantile(0.99), h.Max)
	}
	return b.String()
}

// global is the process-wide registry deep subsystems (session, ticket,
// keyex) report through; they have no per-campaign injection point, so
// study.Run installs its registry here for the duration of the run.
var global atomic.Pointer[Registry]

// Global returns the installed process-wide registry, or nil (meaning
// telemetry off — and nil is a valid no-op registry everywhere).
func Global() *Registry { return global.Load() }

// SetGlobal installs r as the process-wide registry and returns a
// function that restores the previous one:
//
//	defer telemetry.SetGlobal(reg)()
func SetGlobal(r *Registry) (restore func()) {
	old := global.Swap(r)
	return func() { global.Store(old) }
}

// Span is one campaign phase's record, delivered in the phase's end
// PhaseEvent: each lifetime-probe pass, each scan day, each traffic day,
// the cross-domain pass and the cryptanalysis pass produce one. Fields
// derived from wall time (WallNanos, Utilization) vary run to run;
// everything else is deterministic for a fixed (seed, fault plan).
type Span struct {
	// Phase is "lifetime-id", "lifetime-ticket", "day", "traffic-day",
	// "cross-domain", or "cryptanalysis".
	Phase string `json:"phase"`
	// Day is the 0-based day for "day" and "traffic-day" spans, -1
	// otherwise.
	Day int `json:"day"`
	// Days is the campaign length in scan days.
	Days int `json:"days"`
	// VirtualDate is the simulated clock (RFC 3339) when the phase ended.
	VirtualDate string `json:"virtual_date,omitempty"`
	// Domains is the number of targets probed in this phase; for
	// "traffic-day" spans, the number of user visits.
	Domains int `json:"domains"`
	// Failures counts probes whose final attempt failed; for "day"
	// spans these are first-connection (ticket-scan) failures, for
	// "traffic-day" spans failed visits.
	Failures int `json:"failures"`
	// PairFailures counts failed second connections: the DHE/ECDHE
	// reuse pairs of a scan day, the cache probes of the cross-domain
	// pass; 0 for other phases.
	PairFailures int `json:"pair_failures"`
	// Handshakes is the number of connection attempts, retries included.
	Handshakes uint64 `json:"handshakes"`
	// Retries is the number of those attempts that were retries.
	Retries uint64 `json:"retries"`
	// WallNanos is the real elapsed time of the phase.
	WallNanos int64 `json:"wall_ns"`
	// Workers is the scanner pool size the phase ran with.
	Workers int `json:"workers"`
	// Utilization is busy worker time / (wall time × workers), in [0,1].
	Utilization float64 `json:"utilization"`
}

// PhaseEvent is the campaign-phase lifecycle notification study.Run
// delivers to an attached observer (the obsv flight recorder listens
// through it). A Start event carries only the identifying span fields
// (Phase, Day, Days, VirtualDate, Domains, Workers); the end event adds
// the completed span plus the per-phase counter deltas a journal wants
// attributed to the phase they happened in.
type PhaseEvent struct {
	// Span identifies the phase; on end events every field is filled.
	Span Span
	// Start is true at phase entry, false at phase completion.
	Start bool
	// FailureClasses maps faults.ErrClass -> probes that ended the phase
	// failed with that class (delta over the phase; end events only).
	FailureClasses map[string]uint64
	// Faults maps injected-fault kind -> occurrences during the phase.
	Faults map[string]uint64
	// STEKRotations counts ticket-key rotations observed in the phase.
	// Deterministic across worker counts but NOT shard-additive: a
	// per-operator manager rotates lazily in every shard that touches
	// its domains, so cross-shard journal merges must normalize it out.
	STEKRotations uint64
}
