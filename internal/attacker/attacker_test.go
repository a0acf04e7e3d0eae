package attacker_test

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"tlsshortcuts/internal/attacker"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
)

// Regression: a corrupted direction byte must fail loudly with a typed
// error, not fold into "from server" (pre-fix, any nonzero byte meant
// FromClient=false except exactly 1).
func TestLoadRejectsBadDirection(t *testing.T) {
	conv := &attacker.Conversation{Segments: []attacker.Segment{
		{FromClient: true, Data: []byte("hello")},
		{FromClient: false, Data: []byte("world!")},
	}}
	blob := conv.Save()

	// The second segment's direction byte sits after magic + first header
	// + first payload.
	off := 8 + 5 + 5
	for _, dir := range []byte{2, 0x7f, 0xff} {
		bad := append([]byte(nil), blob...)
		bad[off] = dir
		_, err := attacker.Load(bad)
		if err == nil {
			t.Fatalf("Load accepted direction byte 0x%02x", dir)
		}
		var bde *attacker.BadDirectionError
		if !errors.As(err, &bde) {
			t.Fatalf("error %v is not a BadDirectionError", err)
		}
		if bde.Offset != off || bde.Dir != dir {
			t.Errorf("BadDirectionError{Offset: %d, Dir: 0x%02x}, want {%d, 0x%02x}",
				bde.Offset, bde.Dir, off, dir)
		}
	}
}

// TLSCAP01 round-trip property: Save∘Load∘Save is the identity on bytes
// (including empty conversations and empty segments), and every prefix
// that does not end exactly on a segment boundary is rejected.
func TestSaveLoadRoundTripProperty(t *testing.T) {
	cases := []*attacker.Conversation{
		{},
		{Segments: []attacker.Segment{{FromClient: true}}}, // empty payload
		{Segments: []attacker.Segment{
			{FromClient: true, Data: []byte("GET /")},
			{FromClient: false, Data: []byte("200 OK")},
			{FromClient: false, Data: []byte{}}, // empty mid-stream segment
			{FromClient: true, Data: bytes.Repeat([]byte{0xab}, 300)},
		}},
	}
	for ci, conv := range cases {
		b1 := conv.Save()
		got, err := attacker.Load(b1)
		if err != nil {
			t.Fatalf("case %d: Load: %v", ci, err)
		}
		b2 := got.Save()
		if !bytes.Equal(b1, b2) {
			t.Errorf("case %d: Save(Load(Save)) differs from Save", ci)
		}
		if len(got.Segments) != len(conv.Segments) {
			t.Errorf("case %d: %d segments after round trip, want %d",
				ci, len(got.Segments), len(conv.Segments))
		}

		// Valid cut points: after the magic and after each whole segment.
		valid := map[int]bool{8: true}
		off := 8
		for _, s := range conv.Segments {
			off += 5 + len(s.Data)
			valid[off] = true
		}
		for n := 0; n < len(b1); n++ {
			c, err := attacker.Load(b1[:n])
			if valid[n] {
				if err != nil {
					t.Errorf("case %d: prefix %d is a segment boundary but Load failed: %v", ci, n, err)
				}
			} else if err == nil {
				t.Errorf("case %d: Load accepted mid-segment truncation at %d (%d segments)",
					ci, n, len(c.Segments))
			}
		}
	}
}

// sinkConn satisfies just enough of net.Conn for a write-only tap.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }

// Regression: a snapshot must not alias the live recording. Pre-fix,
// Conversation returned a view sharing the Segments backing array, so a
// later same-direction write — which rewrites that element's Data header
// in place — retroactively grew the snapshot.
func TestTapSnapshotIsolation(t *testing.T) {
	tap := attacker.NewTap(sinkConn{})
	if _, err := tap.Write([]byte("AB")); err != nil {
		t.Fatal(err)
	}
	snap := tap.Conversation()
	if _, err := tap.Write([]byte("CD")); err != nil {
		t.Fatal(err)
	}
	if got := string(snap.Segments[0].Data); got != "AB" {
		t.Errorf("snapshot mutated by post-snapshot traffic: %q, want %q", got, "AB")
	}
	if len(snap.Segments) != 1 {
		t.Errorf("snapshot has %d segments, want 1", len(snap.Segments))
	}
	// And the live tap kept both writes.
	if got := string(tap.Conversation().Segments[0].Data); got != "ABCD" {
		t.Errorf("live recording = %q, want %q", got, "ABCD")
	}
}

// Concurrent snapshot use while the tap keeps recording must be
// race-clean (run under -race): parse and serialize snapshots in the
// reader while a writer streams segments through the tap. The writer
// gets a fixed burst of writes per snapshot, released just before the
// reader takes it, so the two still overlap but the recording stays
// bounded (rounds*burst*64 bytes); an unthrottled writer on a multi-core
// host grows it by gigabytes while the reader copies it.
func TestTapConcurrentParse(t *testing.T) {
	const rounds, burst = 200, 16
	tap := attacker.NewTap(sinkConn{})
	start := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := bytes.Repeat([]byte{0x16}, 64)
		for range start {
			for j := 0; j < burst; j++ {
				tap.Write(buf)
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		start <- struct{}{}
		c := tap.Conversation()
		blob := c.Save()
		if _, err := attacker.Load(blob); err != nil {
			t.Fatalf("snapshot %d failed to round-trip: %v", i, err)
		}
		_, _ = attacker.Parse(c) // not a TLS stream; must not race, may error
	}
	close(start)
	<-done
}

// e2e: a capture of a ticket-resumed handshake decrypts via the
// OfferedTicket path. The resumed connection's issued ticket is sealed by
// the CURRENT epoch key; the attacker holds only the PREVIOUS epoch key —
// which opens the offered ticket, whose state carries the same master
// secret the resumed connection reuses.
func TestOfferedTicketDecryption(t *testing.T) {
	clock := simclock.NewManual(simclock.Epoch)
	root, err := pki.NewRootCA("Tap Test CA")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"victim.test"}, 2,
		simclock.Epoch.AddDate(0, -1, 0), simclock.Epoch.AddDate(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	mgr := &ticket.Rotating{
		Seed: []byte("e2e-rotating"), Base: simclock.Epoch,
		Period: 14 * time.Hour, AcceptPrevious: 1, Format: ticket.FormatRFC5077,
	}
	scfg := &tlsserver.Config{Clock: clock, DefaultCert: leaf, Tickets: mgr}

	dial := func(ccfg *tlsclient.Config) (*tlsclient.Capture, *attacker.Conversation) {
		t.Helper()
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			tlsserver.Serve(srv, scfg)
		}()
		tap := attacker.NewTap(cli)
		cap, err := tlsclient.Handshake(tap, ccfg)
		if err != nil {
			t.Fatalf("handshake: %v", err)
		}
		cli.Close()
		<-done
		return cap, tap.Conversation()
	}

	// Connection 1, epoch 0: collect a ticket sealed by k0.
	appData := []byte("GET /inbox HTTP/1.1\r\nCookie: auth=topsecret\r\n\r\n")
	cap1, _ := dial(&tlsclient.Config{
		ServerName: "victim.test", Clock: clock, OfferTicket: true, AppData: appData,
	})
	if !cap1.TicketIssued || cap1.Session == nil {
		t.Fatal("first connection issued no ticket")
	}
	k0 := mgr.IssuingKey(clock.Now())

	// One epoch later the server resumes off the k0 ticket but reissues
	// under k1.
	clock.Advance(14 * time.Hour)
	cap2, conv := dial(&tlsclient.Config{
		ServerName: "victim.test", Clock: clock, OfferTicket: true, AppData: appData,
		Resume: cap1.Session, ResumeViaTicket: true,
	})
	if !cap2.ResumedViaTicket {
		t.Fatal("second connection did not resume via ticket")
	}

	rec, err := attacker.Parse(conv)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Resumed {
		t.Error("parse did not mark the capture as resumed")
	}
	if len(rec.OfferedTicket) == 0 || len(rec.IssuedTicket) == 0 {
		t.Fatal("capture missing offered or reissued ticket")
	}
	k1 := mgr.IssuingKey(clock.Now())
	if bytes.Equal(k0.Name, k1.Name) {
		t.Fatal("test setup: epochs share a key")
	}
	if k0.Open(rec.IssuedTicket) != nil {
		t.Fatal("test setup: previous key opens the reissued ticket")
	}

	// Only the previous epoch's key leaks — the issued ticket stays
	// sealed, so recovery must go through the offered ticket.
	master, err := rec.MasterFromSTEK(k0)
	if err != nil {
		t.Fatalf("MasterFromSTEK via offered ticket: %v", err)
	}
	msgs, err := rec.Decrypt(master)
	if err != nil {
		t.Fatal(err)
	}
	var clientPlain []byte
	for _, m := range msgs {
		if m.FromClient {
			clientPlain = append(clientPlain, m.Plain...)
		}
	}
	if !bytes.Contains(clientPlain, []byte("auth=topsecret")) {
		t.Errorf("decrypted client traffic %q missing the recorded secret", clientPlain)
	}

	// Replay accounting over the same capture: the leaked key decrypts it,
	// an unrelated key only bumps Attempted.
	cc := []attacker.CapturedConn{{Domain: "victim.test", Conv: conv, Rec: rec}}
	y := attacker.Replay(cc, []*ticket.STEK{k0})
	if y.Attempted != 1 || y.Connections != 1 || y.Domains != 1 || y.Bytes == 0 {
		t.Errorf("Replay with leaked key = %+v, want 1/1/1 with bytes", y)
	}
	y = attacker.Replay(cc, []*ticket.STEK{ticket.Derive([]byte("unrelated"), ticket.FormatRFC5077)})
	if y.Attempted != 1 || y.Connections != 0 || y.Domains != 0 || y.Bytes != 0 {
		t.Errorf("Replay with wrong key = %+v, want attempted only", y)
	}
}
