package study

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var regen = flag.Bool("regen-golden", false, "rewrite the golden dataset hash")

func regenGolden() bool { return *regen }

// determinism campaign: small enough to run three times in a test, large
// enough to exercise every scan type, resumption path, and cache.
var detOpts = Options{ListSize: 200, Days: 8, Seed: 7, Workers: 8}

func datasetHash(t *testing.T, o Options) string {
	t.Helper()
	ds, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestCampaignDeterminism runs the campaign twice and checks both runs
// against each other and against the golden hash checked into testdata.
// A golden mismatch means a change perturbed measured results — if the
// change is intentional, regenerate with:
//
//	go test ./internal/study -run TestCampaignDeterminism -regen-golden
func TestCampaignDeterminism(t *testing.T) {
	h1 := datasetHash(t, detOpts)
	h2 := datasetHash(t, detOpts)
	if h1 != h2 {
		t.Fatalf("same options, different datasets:\n  run1 %s\n  run2 %s", h1, h2)
	}
	golden := filepath.Join("testdata", "campaign_200x8_seed7.sha256")
	if regenGolden() {
		if err := os.WriteFile(golden, []byte(h1+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -regen-golden): %v", err)
	}
	if got := strings.TrimSpace(string(want)); got != h1 {
		t.Fatalf("dataset drifted from golden:\n  got  %s\n  want %s", h1, got)
	}
}

func goldenCampaignHash(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "campaign_200x8_seed7.sha256"))
	if err != nil {
		t.Fatalf("read golden (regenerate with -regen-golden): %v", err)
	}
	return strings.TrimSpace(string(b))
}

// TestChunkedSchedulerWorkerIndependence pins worker-count invariance of
// the scanner's one-index-per-atomic-add claim loop: the campaign runs
// with 3 and 13 workers (against the golden's 8) and must reproduce the
// golden dataset byte for byte. The claim order changes which worker
// runs which probe — never the probe's inputs — so the dataset must not
// depend on the worker count.
func TestChunkedSchedulerWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small campaigns")
	}
	golden := goldenCampaignHash(t)
	for _, w := range []int{3, 13} {
		o := detOpts
		o.Workers = w
		if got := datasetHash(t, o); got != golden {
			t.Fatalf("dataset differs at %d workers:\n  got  %s\n  want %s", w, got, golden)
		}
	}
}
