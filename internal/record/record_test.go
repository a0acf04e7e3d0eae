package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// countConn is an in-memory net.Conn that records every Write as a
// separate chunk and serves reads from a preloaded buffer. A non-nil
// werr fails every write.
type countConn struct {
	writes [][]byte
	rd     bytes.Buffer
	werr   error
}

func (c *countConn) Write(p []byte) (int, error) {
	if c.werr != nil {
		return 0, c.werr
	}
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *countConn) Read(p []byte) (int, error)       { return c.rd.Read(p) }
func (c *countConn) Close() error                     { return nil }
func (c *countConn) LocalAddr() net.Addr              { return nil }
func (c *countConn) RemoteAddr() net.Addr             { return nil }
func (c *countConn) SetDeadline(time.Time) error      { return nil }
func (c *countConn) SetReadDeadline(time.Time) error  { return nil }
func (c *countConn) SetWriteDeadline(time.Time) error { return nil }

func newTestConn(c net.Conn) *Conn {
	rc := new(Conn)
	rc.Reset(c)
	return rc
}

// frame is the reference encoding of one plaintext record.
func frame(typ uint8, payload []byte) []byte {
	b := []byte{typ, 0, 0, 0, 0}
	binary.BigEndian.PutUint16(b[1:3], recordVersion)
	binary.BigEndian.PutUint16(b[3:5], uint16(len(payload)))
	return append(b, payload...)
}

var (
	testKey  = bytes.Repeat([]byte{0x11}, 16)
	testSalt = []byte{1, 2, 3, 4}
)

// flight is a handshake-shaped sequence of records: plaintext messages,
// a ChangeCipherSpec, then (once armed) a protected Finished.
var flight = []struct {
	typ     uint8
	payload []byte
	arm     bool // arm the write direction before this record
}{
	{TypeHandshake, bytes.Repeat([]byte{0xaa}, 90), false},
	{TypeHandshake, bytes.Repeat([]byte{0xbb}, 700), false},
	{TypeChangeCipherSpec, []byte{1}, false},
	{TypeHandshake, bytes.Repeat([]byte{0xcc}, 16), true},
}

func writeFlight(t *testing.T, rc *Conn) {
	t.Helper()
	for _, r := range flight {
		if r.arm {
			if err := rc.ArmWrite(testKey, testSalt); err != nil {
				t.Fatal(err)
			}
		}
		if err := rc.WriteRecord(r.typ, r.payload); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlightIsOneWrite(t *testing.T) {
	fc := &countConn{}
	rc := newTestConn(fc)
	writeFlight(t, rc)
	if len(fc.writes) != 0 {
		t.Fatalf("%d transport writes before Flush, want 0", len(fc.writes))
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(fc.writes) != 1 {
		t.Fatalf("%d transport writes for a %d-record flight, want 1", len(fc.writes), len(flight))
	}
	if err := rc.Flush(); err != nil || len(fc.writes) != 1 {
		t.Fatalf("empty Flush wrote (writes=%d, err=%v)", len(fc.writes), err)
	}
}

// TestFlightBytesMatchRecordByRecord checks the batched write equals the
// flight's records framed one by one: plaintext records byte-for-byte,
// and the protected record as an independent AEAD over the same key,
// salt, sequence number and header.
func TestFlightBytesMatchRecordByRecord(t *testing.T) {
	fc := &countConn{}
	rc := newTestConn(fc)
	writeFlight(t, rc)
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	aead, err := NewAEAD(testKey)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var seq uint64
	armed := false
	for _, r := range flight {
		armed = armed || r.arm
		if !armed {
			want = append(want, frame(r.typ, r.payload)...)
			continue
		}
		// RFC 5246 §6.2.3.3: nonce = salt || seq, AAD = seq || type ||
		// version || plaintext length; the explicit nonce leads the
		// payload.
		var nonce [12]byte
		copy(nonce[:4], testSalt)
		binary.BigEndian.PutUint64(nonce[4:], seq)
		ad := binary.BigEndian.AppendUint64(nil, seq)
		ad = append(ad, r.typ, 3, 3)
		ad = binary.BigEndian.AppendUint16(ad, uint16(len(r.payload)))
		sealed := aead.Seal(append([]byte(nil), nonce[4:]...), nonce[:], r.payload, ad)
		want = append(want, frame(r.typ, sealed)...)
		seq++
	}
	if !bytes.Equal(fc.writes[0], want) {
		t.Fatalf("coalesced flight differs from record-by-record framing:\n got %x\nwant %x", fc.writes[0], want)
	}
	// The receiving side decodes the same records back.
	rd := &countConn{}
	rd.rd.Write(fc.writes[0])
	in := newTestConn(rd)
	for i, r := range flight {
		if r.arm {
			if err := in.ArmRead(testKey, testSalt); err != nil {
				t.Fatal(err)
			}
		}
		got, err := in.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Type != r.typ || !bytes.Equal(got.Payload, r.payload) {
			t.Fatalf("record %d: got type %d payload %x", i, got.Type, got.Payload)
		}
	}
}

func TestWriteRecordFlushesAtMaxPend(t *testing.T) {
	fc := &countConn{}
	rc := newTestConn(fc)
	payload := make([]byte, 1000)
	n := 0
	for len(fc.writes) == 0 {
		if n > maxPend/len(payload)+1 {
			t.Fatalf("no eager flush after %d records (%d bytes queued)", n, n*(len(payload)+5))
		}
		if err := rc.WriteRecord(TypeAppData, payload); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if got := len(fc.writes[0]); got < maxPend || got != n*(len(payload)+5) {
		t.Fatalf("eager flush wrote %d bytes after %d records, want all %d queued (>= maxPend %d)",
			got, n, n*(len(payload)+5), maxPend)
	}
	if len(rc.pend) != 0 {
		t.Fatalf("%d bytes still pending after the eager flush", len(rc.pend))
	}
}

func TestReadRecordFlushesPending(t *testing.T) {
	fc := &countConn{}
	fc.rd.Write(frame(TypeHandshake, []byte("reply")))
	rc := newTestConn(fc)
	if err := rc.WriteRecord(TypeHandshake, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	r, err := rc.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Payload) != "reply" {
		t.Fatalf("read payload %q", r.Payload)
	}
	if len(fc.writes) != 1 || !bytes.Equal(fc.writes[0], frame(TypeHandshake, []byte("hello"))) {
		t.Fatalf("ReadRecord did not flush the pending record first: writes=%x", fc.writes)
	}
}

func TestWriteAlertFlushesPending(t *testing.T) {
	fc := &countConn{}
	rc := newTestConn(fc)
	if err := rc.WriteRecord(TypeHandshake, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := rc.WriteAlert(AlertHandshakeFailure); err != nil {
		t.Fatal(err)
	}
	want := append(frame(TypeHandshake, []byte("hello")), frame(TypeAlert, []byte{2, AlertHandshakeFailure})...)
	if len(fc.writes) != 1 || !bytes.Equal(fc.writes[0], want) {
		t.Fatalf("WriteAlert writes=%x, want one write %x", fc.writes, want)
	}
}

func TestTransportErrorSurfacesAtFlush(t *testing.T) {
	errBroken := errors.New("broken transport")
	fc := &countConn{werr: errBroken}
	rc := newTestConn(fc)
	if err := rc.WriteRecord(TypeHandshake, []byte("hello")); err != nil {
		t.Fatalf("WriteRecord failed before any transport write: %v", err)
	}
	if err := rc.Flush(); !errors.Is(err, errBroken) {
		t.Fatalf("Flush = %v, want %v", err, errBroken)
	}
	if err := rc.WriteRecord(TypeHandshake, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.ReadRecord(); !errors.Is(err, errBroken) {
		t.Fatalf("ReadRecord = %v, want the flush error %v", err, errBroken)
	}
	if err := rc.WriteAlert(AlertCloseNotify); !errors.Is(err, errBroken) {
		t.Fatalf("WriteAlert = %v, want %v", err, errBroken)
	}
}
