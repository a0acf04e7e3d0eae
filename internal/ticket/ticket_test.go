package ticket

import (
	"bytes"
	"crypto/rand"
	"testing"
	"time"

	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
)

func testState() *session.State {
	st := &session.State{Version: 0x0303, Suite: 0xC02F, CreatedAt: simclock.Epoch}
	for i := range st.MasterSecret {
		st.MasterSecret[i] = byte(i * 3)
	}
	return st
}

func TestSealOpenRoundTripAllFormats(t *testing.T) {
	st := testState()
	for _, f := range []Format{FormatRFC5077, FormatMbedTLS, FormatSChannel} {
		k := Derive([]byte("round-trip"), f)
		tkt, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatalf("%v: seal: %v", f, err)
		}
		got := k.Open(tkt)
		if got == nil {
			t.Fatalf("%v: open failed", f)
		}
		if got.Suite != st.Suite || got.Version != st.Version ||
			!got.CreatedAt.Equal(st.CreatedAt) || got.MasterSecret != st.MasterSecret {
			t.Errorf("%v: state mismatch after round trip: %+v", f, got)
		}
		// A different key with the same format must not open it.
		if other := Derive([]byte("other"), f); other.Open(tkt) != nil {
			t.Errorf("%v: foreign key opened the ticket", f)
		}
	}
}

func TestTamperRejection(t *testing.T) {
	st := testState()
	for _, f := range []Format{FormatRFC5077, FormatMbedTLS, FormatSChannel} {
		k := Derive([]byte("tamper"), f)
		tkt, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range []int{0, len(tkt) / 2, len(tkt) - 1} {
			mut := append([]byte(nil), tkt...)
			mut[pos] ^= 0x01
			if k.Open(mut) != nil {
				t.Errorf("%v: accepted ticket with byte %d flipped", f, pos)
			}
		}
		if k.Open(tkt[:len(tkt)-5]) != nil {
			t.Errorf("%v: accepted truncated ticket", f)
		}
		if k.Open(nil) != nil {
			t.Errorf("%v: accepted empty ticket", f)
		}
	}
}

func TestExtractKeyID(t *testing.T) {
	st := testState()

	// RFC 5077: the 16-byte key name leads the ticket.
	k16 := Derive([]byte("a"), FormatRFC5077)
	tkt, err := k16.Seal(st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if id := ExtractKeyID(tkt); !bytes.Equal(id, k16.Name) || len(id) != 16 {
		t.Errorf("rfc5077 key ID = %x, want name %x", id, k16.Name)
	}

	// SChannel: magic precedes the 16-byte GUID.
	ks := Derive([]byte("a"), FormatSChannel)
	tkt, err = ks.Seal(st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if id := ExtractKeyID(tkt); !bytes.Equal(id, ks.Name) {
		t.Errorf("schannel key ID = %x, want GUID %x", id, ks.Name)
	}
}

func TestDetectKeyID(t *testing.T) {
	st := testState()
	for _, tc := range []struct {
		format Format
		idLen  int
	}{
		{FormatRFC5077, 16},
		{FormatMbedTLS, 4},
		{FormatSChannel, 20},
	} {
		k := Derive([]byte("detect"), tc.format)
		t1, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		id := DetectKeyID(t1, t2)
		if len(id) != tc.idLen {
			t.Errorf("%v: key ID length %d, want %d", tc.format, len(id), tc.idLen)
		}
		// Tickets under different keys share no ID — including the
		// SChannel case, where both carry the same 4-byte magic.
		k2 := Derive([]byte("detect-2"), tc.format)
		t3, err := k2.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if id := DetectKeyID(t1, t3); id != nil {
			t.Errorf("%v: cross-key detection returned %x, want nil", tc.format, id)
		}
	}
}

func TestStaticManager(t *testing.T) {
	mgr := NewStatic([]byte("static"), FormatRFC5077)
	now := simclock.Epoch
	tkt, err := mgr.IssuingKey(now).Seal(testState(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// A static key never rotates: still accepted years later.
	if mgr.LookupKey(tkt, now.AddDate(2, 0, 0)) == nil {
		t.Error("static key rejected its own ticket")
	}
	if keys := mgr.ActiveKeys(now); len(keys) != 1 {
		t.Errorf("static manager has %d active keys, want 1", len(keys))
	}
}

func TestRotatingPreviousKeyWindow(t *testing.T) {
	base := simclock.Epoch
	mgr := &Rotating{
		Seed: []byte("rot"), Base: base, Period: 14 * time.Hour,
		AcceptPrevious: 1, Format: FormatRFC5077,
	}
	tkt, err := mgr.IssuingKey(base).Seal(testState(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Accepted through its own epoch and one successor (Google's 14h+1).
	for _, d := range []time.Duration{time.Hour, 13 * time.Hour, 20 * time.Hour, 27 * time.Hour} {
		if mgr.LookupKey(tkt, base.Add(d)) == nil {
			t.Errorf("ticket rejected at +%v, inside the acceptance window", d)
		}
	}
	// Rejected two epochs later.
	if mgr.LookupKey(tkt, base.Add(29*time.Hour)) != nil {
		t.Error("ticket accepted after the previous-key window closed")
	}
	// Issuing keys differ across epochs.
	k0 := mgr.IssuingKey(base)
	k1 := mgr.IssuingKey(base.Add(14 * time.Hour))
	if bytes.Equal(k0.Name, k1.Name) {
		t.Error("rotation produced identical key names across epochs")
	}
	// Both current and previous keys are active inside an epoch.
	if keys := mgr.ActiveKeys(base.Add(20 * time.Hour)); len(keys) != 2 {
		t.Errorf("active keys = %d, want 2 (current + previous)", len(keys))
	}
}

func TestRotatingDeterminism(t *testing.T) {
	base := simclock.Epoch
	a := &Rotating{Seed: []byte("same"), Base: base, Period: time.Hour, Format: FormatMbedTLS}
	b := &Rotating{Seed: []byte("same"), Base: base, Period: time.Hour, Format: FormatMbedTLS}
	at := base.Add(90 * time.Minute)
	if !bytes.Equal(a.IssuingKey(at).Name, b.IssuingKey(at).Name) {
		t.Error("identically-seeded managers derived different keys")
	}
}

// TestOpenTicketIntoCountsOncePerTicket checks both managers' resume path
// against the process telemetry registry: every OpenTicketInto call adds
// exactly one ticket/open_ok or ticket/open_miss, however many accepted
// keys a rotating manager tries before deciding.
func TestOpenTicketIntoCountsOncePerTicket(t *testing.T) {
	base := simclock.Epoch
	static := NewStatic([]byte("count-static"), FormatRFC5077)
	rot := &Rotating{
		Seed: []byte("count-rot"), Base: base, Period: 14 * time.Hour,
		AcceptPrevious: 1, Format: FormatRFC5077,
	}
	seal := func(m Manager) []byte {
		t.Helper()
		tkt, err := m.IssuingKey(base).Seal(testState(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return tkt
	}
	staticTkt, rotTkt := seal(static), seal(rot)
	tamper := func(tkt []byte) []byte {
		mut := append([]byte(nil), tkt...)
		mut[len(mut)/2] ^= 0x01
		return mut
	}
	cases := []struct {
		name string
		mgr  Manager
		tkt  []byte
		at   time.Duration
		ok   bool
	}{
		{"static/current", static, staticTkt, time.Hour, true},
		{"static/tampered", static, tamper(staticTkt), time.Hour, false},
		{"rotating/current", rot, rotTkt, time.Hour, true},
		{"rotating/previous", rot, rotTkt, 20 * time.Hour, true},
		{"rotating/expired", rot, rotTkt, 29 * time.Hour, false},
		{"rotating/tampered", rot, tamper(rotTkt), time.Hour, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			defer telemetry.SetGlobal(reg)()
			var st session.State
			if got := tc.mgr.OpenTicketInto(&st, tc.tkt, base.Add(tc.at)); got != tc.ok {
				t.Fatalf("OpenTicketInto = %v, want %v", got, tc.ok)
			}
			if tc.ok && st.MasterSecret != testState().MasterSecret {
				t.Error("opened ticket decoded the wrong state")
			}
			var wantOK, wantMiss uint64
			if tc.ok {
				wantOK = 1
			} else {
				wantMiss = 1
			}
			c := reg.Snapshot().Counters
			if c["ticket/open_ok"] != wantOK || c["ticket/open_miss"] != wantMiss {
				t.Errorf("open_ok=%d open_miss=%d, want %d/%d",
					c["ticket/open_ok"], c["ticket/open_miss"], wantOK, wantMiss)
			}
		})
	}
}
