package simnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/tlsserver"
)

func faultNet() *Net {
	n := New()
	n.Register("a.example", 1, []string{"10.0.0.1"}, &Endpoint{Config: &tlsserver.Config{}})
	return n
}

func TestDialRefusedClassifiesDial(t *testing.T) {
	n := faultNet()
	clock := simclock.NewManual(simclock.Epoch)
	n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, Refuse: 1}, clock))
	_, err := n.DialProbe("a.example", "probe")
	if err == nil {
		t.Fatal("Refuse=1 plan let a dial through")
	}
	if c := faults.Classify(err); c != faults.ClassDial {
		t.Fatalf("refused dial classified %q, want %q (err: %v)", c, faults.ClassDial, err)
	}
}

func TestNoRouteClassifiesDial(t *testing.T) {
	n := faultNet()
	_, err := n.Dial("nonexistent.example")
	if err == nil {
		t.Fatal("dial to an unregistered domain succeeded")
	}
	if c := faults.Classify(err); c != faults.ClassDial {
		t.Fatalf("no-route dial classified %q, want %q", c, faults.ClassDial)
	}
}

// TestStalledBackendTimesOutReads: a stalled peer never writes, so a
// read under a deadline fails as a timeout at once, however far away the
// deadline is; a read with no deadline blocks until the conn is closed.
func TestStalledBackendTimesOutReads(t *testing.T) {
	dial := func(t *testing.T) net.Conn {
		t.Helper()
		n := faultNet()
		clock := simclock.NewManual(simclock.Epoch)
		n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, StallDomains: []string{"a.example"}}, clock))
		conn, err := n.DialProbe("a.example", "probe")
		if err != nil {
			t.Fatalf("stalled dial should return a connection: %v", err)
		}
		if _, err := conn.Write([]byte("client hello bytes")); err != nil {
			t.Fatalf("write to stalled backend should be swallowed: %v", err)
		}
		return conn
	}
	read := func(conn net.Conn) <-chan error {
		done := make(chan error, 1)
		go func() {
			n, err := conn.Read(make([]byte, 16))
			if n > 0 {
				err = errors.New("read from stalled backend returned data")
			}
			done <- err
		}()
		return done
	}

	t.Run("deadline", func(t *testing.T) {
		conn := dial(t)
		defer conn.Close()
		_ = conn.SetReadDeadline(time.Now().Add(time.Hour))
		select {
		case err := <-read(conn):
			if c := faults.Classify(err); c != faults.ClassTimeout {
				t.Fatalf("stalled read classified %q, want %q (err: %v)", c, faults.ClassTimeout, err)
			}
		case <-time.After(time.Second):
			t.Fatal("stalled read under a 1h deadline waited on the wall clock")
		}
	})

	t.Run("no deadline", func(t *testing.T) {
		conn := dial(t)
		done := read(conn)
		select {
		case err := <-done:
			t.Fatalf("stalled read with no deadline returned early: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		go conn.Close()
		select {
		case err := <-done:
			if !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("read after Close returned %v, want %v", err, io.ErrClosedPipe)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not unblock the stalled read")
		}
	})
}

func TestResetDropsConnectionMidHandshake(t *testing.T) {
	n := faultNet()
	clock := simclock.NewManual(simclock.Epoch)
	n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, Reset: 1}, clock))
	conn, err := n.DialProbe("a.example", "probe")
	if err != nil {
		t.Fatalf("reset dial should return a connection: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	// An oversized record header: the server errors at the record layer
	// and tears the connection down (directly, or via resetConn cutting
	// off its alert write).
	_, _ = conn.Write([]byte{22, 3, 3, 0xff, 0xff})
	buf := make([]byte, 256)
	for i := 0; i < 16; i++ {
		if _, err = conn.Read(buf); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("reset connection never errored")
	}
	if c := faults.Classify(err); c != faults.ClassReset {
		t.Fatalf("reset read classified %q, want %q (err: %v)", c, faults.ClassReset, err)
	}
}

func TestClearingFaultsRestoresNormalDials(t *testing.T) {
	n := faultNet()
	clock := simclock.NewManual(simclock.Epoch)
	n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, Refuse: 1}, clock))
	if _, err := n.DialProbe("a.example", "probe"); err == nil {
		t.Fatal("plan not applied")
	}
	n.SetFaults(nil)
	conn, err := n.Dial("a.example")
	if err != nil {
		t.Fatalf("dial after clearing faults: %v", err)
	}
	conn.Close()
}
