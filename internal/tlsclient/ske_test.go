package tlsclient

import (
	"net"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

// skeTamperConn corrupts the ServerKeyExchange signature the server
// writes: it flips the last byte of the SKE record's payload, which is
// the last byte of the signature. The record layer flushes whole
// records, so every Write starts on a record boundary.
type skeTamperConn struct {
	net.Conn
	flipped bool
}

func (c *skeTamperConn) Write(b []byte) (int, error) {
	out := append([]byte(nil), b...)
	for off := 0; off+5 <= len(out); {
		n := int(out[off+3])<<8 | int(out[off+4])
		end := off + 5 + n
		if end > len(out) {
			break
		}
		if out[off] == record.TypeHandshake && n > 0 && out[off+5] == wire.TypeServerKeyExchange {
			out[end-1] ^= 0x01
			c.flipped = true
		}
		off = end
	}
	return c.Conn.Write(out)
}

// A server whose (certificate, KEX params) pair already verified once
// must still have every later ServerKeyExchange signature checked: the
// signature covers both hello randoms, so a replayed or forged SKE with
// the same params and a bad signature must fail the handshake. Here the
// server is honest, so a client that skipped the check would still fail
// later, at the server's Finished check over the differing transcript;
// a thief holding the reused KEX private value answers that check
// itself, so only the signature error stops the impersonation.
func TestReplayedSKEBadSignatureRejected(t *testing.T) {
	root, err := pki.NewRootCA("SKE Test CA")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"ske.test"}, 2,
		simclock.Epoch.AddDate(0, -1, 0), simclock.Epoch.AddDate(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	reuse := &keyex.Policy{Mode: keyex.Reuse, Period: 24 * time.Hour, Base: simclock.Epoch, Seed: []byte("ske-replay")}

	for _, tc := range []struct {
		name  string
		suite uint16
		cfg   tlsserver.Config
	}{
		{"ECDHE", wire.SuiteECDHE, tlsserver.Config{ECDHEPolicy: reuse}},
		{"DHE", wire.SuiteDHE, tlsserver.Config{DHEPolicy: reuse}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg := tc.cfg
			scfg.Clock = simclock.NewManual(simclock.Epoch)
			scfg.DefaultCert = leaf
			dial := func(tamper bool) (*Capture, error) {
				cli, srv := net.Pipe()
				defer cli.Close()
				tconn := &skeTamperConn{Conn: srv}
				var sconn net.Conn = srv
				if tamper {
					sconn = tconn
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					tlsserver.Serve(sconn, &scfg)
				}()
				cap, err := Handshake(cli, &Config{
					ServerName: "ske.test", Suites: []uint16{tc.suite},
					Clock: scfg.Clock, ReuseKex: true,
				})
				cli.Close()
				<-done
				if tamper && !tconn.flipped {
					t.Fatal("no ServerKeyExchange record passed the tamper wrapper")
				}
				return cap, err
			}

			first, err := dial(false)
			if err != nil {
				t.Fatalf("honest handshake: %v", err)
			}
			second, err := dial(true)
			if err == nil {
				t.Fatal("handshake with a corrupted ServerKeyExchange signature succeeded")
			}
			if !strings.Contains(err.Error(), "bad ServerKeyExchange signature") {
				t.Fatalf("want the bad-signature error, got %v", err)
			}
			if string(second.ServerKEXValue) != string(first.ServerKEXValue) {
				t.Fatal("Reuse policy served different KEX values; the replay precondition does not hold")
			}
		})
	}
}
