package study

import (
	"testing"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/traffic"
)

// TestStalledDomainCampaignCompletes is the regression test for the
// worker-deadlock bug: a backend that accepts connections but never
// answers used to hang a campaign forever. With deadlines armed the
// campaign must finish, classify the domain's scans as timeouts, and
// drop it from the consistent core. It runs at the default 5 s deadline
// with the traffic plane dialing the stalled domain too: a stalled read
// fails as soon as its deadline is armed, so the campaign finishes in
// about a second; waiting the deadline out in wall time takes minutes
// and trips the guard.
func TestStalledDomainCampaignCompletes(t *testing.T) {
	o := Options{
		ListSize: 200,
		Days:     2,
		Seed:     3,
		Workers:  8,
		Retries:  -1,
		Faults:   &faults.Options{StallDomains: []string{"yahoo.com"}},
		Traffic:  &traffic.Options{Users: 40},
	}
	type result struct {
		ds  *Dataset
		err error
	}
	done := make(chan result, 1)
	go func() {
		ds, err := Run(o)
		done <- result{ds, err}
	}()
	var ds *Dataset
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Run: %v", r.err)
		}
		ds = r.ds
	case <-time.After(120 * time.Second):
		t.Fatal("campaign with a stalled backend did not finish — scan deadlines not enforced")
	}

	const wantMask = uint64(1)<<0 | uint64(1)<<1
	if got := ds.MissedDays["yahoo.com"]; got != wantMask {
		t.Fatalf("MissedDays[yahoo.com] = %b, want %b (both days missed)", got, wantMask)
	}
	foundTimeout := false
	for _, f := range ds.Failures {
		if f.Scan == "ticket" && f.Class == string(faults.ClassTimeout) {
			foundTimeout = true
		}
	}
	if !foundTimeout {
		t.Fatalf("no (ticket, timeout) failure cell recorded: %+v", ds.Failures)
	}
	core := BuildReport(ds).ConsistentCore()
	for _, d := range core {
		if d == "yahoo.com" {
			t.Fatal("stalled domain survived into the consistent core")
		}
	}
	if len(core) == 0 {
		t.Fatal("consistent core is empty — healthy domains were dropped too")
	}
}
