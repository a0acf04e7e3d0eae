package simnet

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// recvBufPool recycles receive buffers across pipes: each handshake makes
// one pipe whose two ~2 KB direction buffers would otherwise be fresh
// allocations. Buffers are handed out at first write and returned when
// the reading side closes (after which neither read nor write touches
// b.buf again, so ownership transfer is unambiguous).
var recvBufPool sync.Pool // *[]byte

// wakeTimer is a pooled read-deadline wake-up timer. The timer callback
// is fixed at construction and indirects through an atomic target
// pointer, so one runtime timer serves many pipes over its lifetime. A
// stale fire after the timer migrates broadcasts on the new target,
// which is harmless: readers recheck their deadline under the lock.
type wakeTimer struct {
	t *time.Timer
	b atomic.Pointer[pipeBuf]
}

func (w *wakeTimer) fire() {
	if b := w.b.Load(); b != nil {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

var wakeTimerPool sync.Pool // *wakeTimer

func getWakeTimer(b *pipeBuf) *wakeTimer {
	w, _ := wakeTimerPool.Get().(*wakeTimer)
	if w == nil {
		w = &wakeTimer{}
		w.t = time.AfterFunc(time.Hour, w.fire)
		w.t.Stop()
	}
	w.b.Store(b)
	return w
}

// NewBufferedPipe returns a connected pair of in-memory net.Conns, like
// net.Pipe but buffered: Write copies into the peer's receive buffer and
// returns immediately instead of blocking on a reader rendezvous. Every
// TLS record flush in the simulation otherwise costs a synchronous
// goroutine handoff; over a campaign's hundreds of thousands of
// handshakes those handoffs dominate the transport cost.
//
// Semantics preserved from net.Pipe:
//   - Read blocks until data, peer close (io.EOF), own close
//     (io.ErrClosedPipe), or read-deadline expiry (net.Error, Timeout).
//   - Write after Close of either end returns io.ErrClosedPipe.
//   - SetDeadline/SetReadDeadline/SetWriteDeadline wake blocked peers.
//
// Differences (documented in DESIGN.md): writes never block, so data
// written before a Close is still readable by the peer until drained
// (TCP-like), and write deadlines only apply at call time.
func NewBufferedPipe() (net.Conn, net.Conn) {
	// Both directions and both endpoints live in one allocation; a
	// campaign makes one pipe per handshake, so the four separate
	// allocations this replaces were a visible slice of the profile.
	p := &pipePair{}
	p.ab.cond.L = &p.ab.mu
	p.ba.cond.L = &p.ba.mu
	p.a = bufConn{rd: &p.ba, wr: &p.ab}
	p.b = bufConn{rd: &p.ab, wr: &p.ba}
	return &p.a, &p.b
}

// pipePair packs a pipe's two directions and two endpoints into a single
// allocation.
type pipePair struct {
	ab, ba pipeBuf // data flowing a -> b, b -> a
	a, b   bufConn
}

// pipeBuf is one direction's byte queue.
type pipeBuf struct {
	mu    sync.Mutex
	cond  sync.Cond
	buf   []byte // pending bytes are buf[off:]
	off   int
	wEOF  bool // writer side closed: drain then io.EOF
	rGone bool // reader side closed: writes fail, reads fail

	rdDeadline time.Time
	wrDeadline time.Time
	rdArmed    bool // wake timer armed for the current rdDeadline

	// box is the recvBufPool box buf came from (nil for a fresh make),
	// reused at closeRead so returning the buffer costs no allocation.
	box *[]byte
	// wake is the pooled read-deadline timer, taken at the first blocking
	// read under a deadline and returned at closeRead.
	wake *wakeTimer
}

// bufConn is one endpoint: reads from rd, writes into wr.
type bufConn struct {
	rd, wr *pipeBuf

	mu     sync.Mutex
	closed bool
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "bufpipe" }
func (pipeAddr) String() string  { return "bufpipe" }

// timeoutError matches the error surface of net.Pipe deadline failures.
func timeoutError() error { return os.ErrDeadlineExceeded }

func (b *pipeBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rGone || b.wEOF {
		return 0, io.ErrClosedPipe
	}
	if !b.wrDeadline.IsZero() && !time.Now().Before(b.wrDeadline) {
		return 0, timeoutError()
	}
	// Compact once the consumed prefix dominates, so long-lived
	// connections don't grow without bound.
	if b.off > 4096 && b.off*2 > len(b.buf) {
		n := copy(b.buf, b.buf[b.off:])
		b.buf = b.buf[:n]
		b.off = 0
	}
	// Reserve a full handshake flight up front: growing from nil costs
	// several reallocations per direction on every connection, and the
	// server's flight (cert chain included) runs to ~2 KB.
	if b.buf == nil && len(p) > 0 {
		reserve := 2048
		if len(p)+512 > reserve {
			reserve = len(p) + 512
		}
		if v, _ := recvBufPool.Get().(*[]byte); v != nil {
			if cap(*v) < reserve {
				*v = make([]byte, 0, reserve)
			}
			b.buf = (*v)[:0]
			b.box = v
		} else {
			b.buf = make([]byte, 0, reserve)
		}
	}
	b.buf = append(b.buf, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *pipeBuf) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.rGone {
			return 0, io.ErrClosedPipe
		}
		if b.off < len(b.buf) {
			n := copy(p, b.buf[b.off:])
			b.off += n
			if b.off == len(b.buf) {
				b.buf = b.buf[:0]
				b.off = 0
			}
			return n, nil
		}
		if b.wEOF {
			return 0, io.EOF
		}
		if !b.rdDeadline.IsZero() && !time.Now().Before(b.rdDeadline) {
			return 0, timeoutError()
		}
		if len(p) == 0 {
			return 0, nil
		}
		// Arm the wake-up timer only now that this reader actually blocks:
		// most reads find data already buffered and never need one.
		if !b.rdDeadline.IsZero() && !b.rdArmed {
			if d := time.Until(b.rdDeadline); d > 0 {
				if b.wake == nil {
					b.wake = getWakeTimer(b)
				}
				b.wake.t.Reset(d)
				b.rdArmed = true
			}
		}
		b.cond.Wait()
	}
}

// closeWrite marks the writer side closed; pending data stays readable.
func (b *pipeBuf) closeWrite() {
	b.mu.Lock()
	b.wEOF = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// closeRead marks the reader side closed; subsequent peer writes fail.
// Any armed deadline timer is stopped — once the scanner sets deadlines
// on every connection, leaving timers ticking past Close would leak one
// per campaign handshake.
func (b *pipeBuf) closeRead() {
	b.mu.Lock()
	b.rGone = true
	if b.wake != nil {
		b.wake.t.Stop()
		b.wake.b.Store(nil)
		wakeTimerPool.Put(b.wake)
		b.wake = nil
	}
	if b.buf != nil {
		// rGone is set: read and write both bail before touching buf, so
		// the (possibly grown) buffer can migrate to the next pipe. Reuse
		// the box it arrived in; only first-generation buffers box fresh.
		box := b.box
		if box == nil {
			box = new([]byte)
		}
		*box = b.buf
		b.buf = nil
		b.box = nil
		b.off = 0
		recvBufPool.Put(box)
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// setReadDeadline records t; the wake-up timer is armed lazily by read()
// the first time a reader blocks under this deadline, and reused (Reset)
// across deadlines rather than reallocated. A stale fire is harmless
// because the read loop rechecks the deadline under the lock.
func (b *pipeBuf) setReadDeadline(t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rdDeadline = t
	if b.wake != nil {
		b.wake.t.Stop()
	}
	b.rdArmed = false
	b.cond.Broadcast()
}

func (c *bufConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *bufConn) Write(p []byte) (int, error) { return c.wr.write(p) }

func (c *bufConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.rd.closeRead()  // our reads now fail, peer writes now fail
	c.wr.closeWrite() // peer drains remaining data, then sees io.EOF
	return nil
}

func (c *bufConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *bufConn) RemoteAddr() net.Addr { return pipeAddr{} }

func (c *bufConn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

func (c *bufConn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

func (c *bufConn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}

// setWriteDeadline records the deadline; writes never block, so it is
// only consulted at Write entry.
func (b *pipeBuf) setWriteDeadline(t time.Time) {
	b.mu.Lock()
	b.wrDeadline = t
	b.mu.Unlock()
}
