// Package ticket implements RFC 5077 session tickets in the three wire
// formats the paper encountered — the RFC's recommended layout (16-byte
// key name), mbedTLS's 4-byte key name, and an SChannel-style wrapped
// format — plus the STEK managers (static, epoch-rotating with a
// previous-key acceptance window) whose rotation policies set the
// vulnerability windows of §6.
package ticket

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/telemetry"
)

// countOpen records a ticket-resumption decrypt outcome on the process
// registry. Telemetry observes, never perturbs: with no registry
// installed this is a single atomic load and branch.
func countOpen(ok bool) {
	r := telemetry.Global()
	if r == nil {
		return
	}
	if ok {
		r.Counter("ticket/open_ok").Inc()
	} else {
		r.Counter("ticket/open_miss").Inc()
	}
}

// Format is a ticket wire format.
type Format int

const (
	FormatRFC5077  Format = iota // 16-byte key_name | IV | enc | HMAC
	FormatMbedTLS                // 4-byte key_name  | IV | enc | HMAC
	FormatSChannel               // 4-byte magic | 16-byte key GUID | IV | enc | HMAC
)

func (f Format) String() string {
	switch f {
	case FormatMbedTLS:
		return "mbedtls"
	case FormatSChannel:
		return "schannel"
	default:
		return "rfc5077"
	}
}

// nameLen is the key-name length on the wire for the format.
func (f Format) nameLen() int {
	if f == FormatMbedTLS {
		return 4
	}
	return 16
}

var schannelMagic = []byte{0x53, 0x43, 0x48, 0x31} // "SCH1"

// headerLen is the byte count preceding the IV for the format.
func headerLen(f Format) int {
	if f == FormatSChannel {
		return len(schannelMagic) + 16
	}
	return f.nameLen()
}

// sealedWireLen is the fixed on-wire length of any ticket the format
// seals: session states serialize to one known size, so the length alone
// separates the formats (130 bytes RFC 5077, 118 mbedTLS, 134 SChannel).
func sealedWireLen(f Format) int {
	return headerLen(f) + aes.BlockSize + 2 + paddedStateLen + sha256.Size
}

// FormatOf infers the wire format of a sealed ticket. The SChannel
// wrapper magic is definitive; RFC 5077 and mbedTLS are separated by the
// fixed sealed length their key-name widths imply.
func FormatOf(tkt []byte) (Format, bool) {
	if bytes.HasPrefix(tkt, schannelMagic) {
		if len(tkt) == sealedWireLen(FormatSChannel) {
			return FormatSChannel, true
		}
		return 0, false
	}
	switch len(tkt) {
	case sealedWireLen(FormatRFC5077):
		return FormatRFC5077, true
	case sealedWireLen(FormatMbedTLS):
		return FormatMbedTLS, true
	}
	return 0, false
}

// KeyName returns the format-aware key-name bytes of a sealed ticket
// (the key GUID for SChannel), or nil when the layout is unrecognized.
// Unlike ExtractKeyID it never over-reads a 4-byte mbedTLS name into the
// IV, so it is safe to index campaign-wide.
func KeyName(tkt []byte) []byte {
	f, ok := FormatOf(tkt)
	if !ok {
		return nil
	}
	if f == FormatSChannel {
		return tkt[len(schannelMagic):headerLen(f)]
	}
	return tkt[:f.nameLen()]
}

// IVOf returns the CBC initialization vector of a sealed ticket, or nil
// when the layout is unrecognized. A repeated IV under one key name is
// the keystream-reuse signal the cryptanalysis probes look for.
func IVOf(tkt []byte) []byte {
	f, ok := FormatOf(tkt)
	if !ok {
		return nil
	}
	h := headerLen(f)
	return tkt[h : h+aes.BlockSize]
}

// STEK is a session-ticket encryption key: the key name (format-specific
// length), an AES-128-CBC encryption key, and an HMAC-SHA256 key.
type STEK struct {
	Format Format
	Name   []byte
	AESKey [16]byte
	MACKey [32]byte

	// WeakIV, when set before the key's first use, makes every seal
	// derive its CBC IV deterministically from the key instead of drawing
	// it from rand — modeling the fixed-IV deployments behind the AWS
	// keystream-reuse flaw. Identical states then seal to byte-identical
	// tickets, which is exactly what the cryptanalysis probes detect.
	WeakIV bool

	// Lazily-built derived state: the expanded AES block cipher and the
	// wire header are fixed per key, and MAC instances are pooled, so the
	// scanner's thousands of opens per key skip the per-call setup.
	initOnce  sync.Once
	block     cipher.Block
	hdr       []byte
	weakIV    [aes.BlockSize]byte
	macPool   sync.Pool
	plainPool sync.Pool // *[]byte decrypt scratch for OpenInto
}

func (k *STEK) init() {
	k.initOnce.Do(func() {
		b, err := aes.NewCipher(k.AESKey[:])
		if err != nil {
			panic("ticket: bad AES key: " + err.Error()) // unreachable: key is 16 bytes
		}
		k.block = b
		k.hdr = k.header()
		if k.WeakIV {
			iv := sha256.Sum256(append([]byte("stek-weak-iv:"), k.AESKey[:]...))
			copy(k.weakIV[:], iv[:aes.BlockSize])
		}
	})
}

// macSum appends HMAC-SHA256(MACKey, body) to dst using a pooled MAC.
func (k *STEK) macSum(dst, body []byte) []byte {
	h, _ := k.macPool.Get().(hash.Hash)
	if h == nil {
		h = hmac.New(sha256.New, k.MACKey[:])
	}
	h.Reset()
	h.Write(body)
	dst = h.Sum(dst)
	k.macPool.Put(h)
	return dst
}

// Derive deterministically builds a STEK from seed material. Two servers
// deriving from the same seed share the key — the mechanism behind the
// cross-domain STEK groups of §5.2.
func Derive(seed []byte, f Format) *STEK {
	k := &STEK{Format: f}
	name := sha256.Sum256(append([]byte("stek-name:"), seed...))
	k.Name = append([]byte(nil), name[:f.nameLen()]...)
	enc := sha256.Sum256(append([]byte("stek-aes:"), seed...))
	copy(k.AESKey[:], enc[:16])
	mac := sha256.Sum256(append([]byte("stek-mac:"), seed...))
	k.MACKey = mac
	return k
}

// header returns the bytes that precede the IV for this key.
func (k *STEK) header() []byte {
	if k.Format == FormatSChannel {
		return append(append([]byte(nil), schannelMagic...), k.Name...)
	}
	return append([]byte(nil), k.Name...)
}

// Seal encrypts-then-MACs state into a ticket, drawing the IV from rand.
// The ticket is assembled in its final buffer — IV read into place,
// CBC encryption in place over the marshaled state — so a seal costs one
// output allocation plus the state marshal.
func (k *STEK) Seal(st *session.State, rand io.Reader) ([]byte, error) {
	k.init()
	return k.AppendSeal(make([]byte, 0, k.SealedLen()), st, rand)
}

// paddedStateLen is a marshaled State PKCS#7-padded to the AES block.
const paddedStateLen = session.MarshaledLen +
	(aes.BlockSize - session.MarshaledLen%aes.BlockSize)

// SealedLen is the fixed on-wire length of a ticket sealed by this key:
// states serialize to one known size, so the server can frame the
// NewSessionTicket message before sealing into it.
func (k *STEK) SealedLen() int {
	k.init()
	return len(k.hdr) + aes.BlockSize + 2 + paddedStateLen + sha256.Size
}

// AppendSeal appends the sealed ticket to dst (byte-identical to Seal,
// including the rand draw for the IV), so the server can seal straight
// into an outgoing message buffer with zero intermediate allocations.
func (k *STEK) AppendSeal(dst []byte, st *session.State, rand io.Reader) ([]byte, error) {
	k.init()
	tstart := len(dst)
	dst = append(dst, k.hdr...)
	ivStart := len(dst)
	var zero [aes.BlockSize]byte
	dst = append(dst, zero[:]...)
	if k.WeakIV {
		copy(dst[ivStart:], k.weakIV[:])
	} else if _, err := io.ReadFull(rand, dst[ivStart:ivStart+aes.BlockSize]); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(paddedStateLen))
	encStart := len(dst)
	dst = st.AppendMarshal(dst)
	// PKCS#7 pad to the AES block size.
	pad := byte(paddedStateLen - session.MarshaledLen)
	for i := byte(0); i < pad; i++ {
		dst = append(dst, pad)
	}
	cipher.NewCBCEncrypter(k.block, dst[ivStart:ivStart+aes.BlockSize]).
		CryptBlocks(dst[encStart:], dst[encStart:])
	return k.macSum(dst, dst[tstart:]), nil
}

// Open authenticates and decrypts a ticket. It returns nil (no error
// detail) when the ticket was not sealed by this key or fails its MAC —
// exactly how a server falls back to a full handshake.
func (k *STEK) Open(tkt []byte) *session.State {
	st := new(session.State)
	if !k.OpenInto(st, tkt) {
		return nil
	}
	return st
}

// OpenInto is Open decoding into caller-owned state, reporting whether
// the ticket authenticated. The decrypt scratch is pooled per key, so
// the resume hot path allocates nothing.
func (k *STEK) OpenInto(dst *session.State, tkt []byte) bool {
	k.init()
	hdr := k.hdr
	minLen := len(hdr) + aes.BlockSize + 2 + sha256.Size
	if len(tkt) < minLen || !bytes.HasPrefix(tkt, hdr) {
		return false
	}
	body, mac := tkt[:len(tkt)-sha256.Size], tkt[len(tkt)-sha256.Size:]
	var sum [sha256.Size]byte
	if !hmac.Equal(k.macSum(sum[:0], body), mac) {
		return false
	}
	p := body[len(hdr):]
	iv := p[:aes.BlockSize]
	n := int(binary.BigEndian.Uint16(p[aes.BlockSize : aes.BlockSize+2]))
	enc := p[aes.BlockSize+2:]
	if n != len(enc) || n == 0 || n%aes.BlockSize != 0 {
		return false
	}
	buf, _ := k.plainPool.Get().(*[]byte)
	if buf == nil || cap(*buf) < n {
		b := make([]byte, 0, max(n, paddedStateLen))
		buf = &b
	}
	plain := (*buf)[:n]
	cipher.NewCBCDecrypter(k.block, iv).CryptBlocks(plain, enc)
	ok := false
	pad := int(plain[n-1])
	if pad > 0 && pad <= aes.BlockSize && pad <= n {
		ok = session.UnmarshalInto(dst, plain[:n-pad]) == nil
	}
	*buf = plain[:0]
	k.plainPool.Put(buf)
	return ok
}

// ExtractKeyID returns the best single-ticket guess at the STEK
// identifier: the SChannel key GUID when the wrapper magic is present,
// otherwise the leading 16 bytes (the RFC 5077 recommended key_name).
// Disambiguating 4-byte mbedTLS names requires two tickets — see
// DetectKeyID, which is what the scanner uses.
func ExtractKeyID(tkt []byte) []byte {
	if bytes.HasPrefix(tkt, schannelMagic) && len(tkt) >= 20 {
		return tkt[4:20]
	}
	if len(tkt) >= 16 {
		return tkt[:16]
	}
	return nil
}

// DetectKeyID recovers a stable key identifier from two tickets issued
// under the same STEK: the longest common prefix, clamped to the
// format's key-name length. Returns nil if the tickets do not share a
// plausible key name (different keys, mismatched formats, or a rotation
// boundary). Clamping matters both ways: an RFC 5077 pair whose 16-byte
// names merely share a few leading bytes must not yield a bogus 4-byte
// ID, and an mbedTLS pair with coincidentally matching IV prefix bytes
// must not inflate its 4-byte name into a 16-byte one — either error
// pollutes the cross-domain STEK groups with false merges.
func DetectKeyID(t1, t2 []byte) []byte {
	n := 0
	for n < len(t1) && n < len(t2) && t1[n] == t2[n] {
		n++
	}
	if f1, ok := FormatOf(t1); ok {
		f2, ok2 := FormatOf(t2)
		if !ok2 || f1 != f2 {
			return nil
		}
		// For SChannel the header includes the shared wrapper magic, so
		// n >= headerLen means the 16-byte key GUID matched.
		if hl := headerLen(f1); n >= hl {
			return t1[:hl]
		}
		return nil
	}
	// Unrecognized layout (not produced by our sealers): keep the legacy
	// heuristic, still bounded by the longest key-name length any format
	// carries.
	if bytes.HasPrefix(t1, schannelMagic) && bytes.HasPrefix(t2, schannelMagic) {
		if n >= 20 {
			return t1[:20]
		}
		return nil
	}
	switch {
	case n >= 16:
		return t1[:16]
	case n >= 4:
		return t1[:4]
	}
	return nil
}

// Manager is a server's STEK policy: which key seals new tickets now, and
// which keys are still accepted for resumption.
type Manager interface {
	// IssuingKey returns the key sealing tickets at time now.
	IssuingKey(now time.Time) *STEK
	// LookupKey returns the accepted key that sealed tkt, or nil.
	LookupKey(tkt []byte, now time.Time) *STEK
	// OpenTicketInto authenticates and decrypts tkt into caller-owned
	// state with whichever accepted key sealed it, in one pass (LookupKey
	// followed by Open decrypts twice), reporting acceptance. Each call
	// counts one ticket/open_ok or ticket/open_miss on the process
	// telemetry registry.
	OpenTicketInto(dst *session.State, tkt []byte, now time.Time) bool
	// ActiveKeys returns every key accepted at time now, issuing first.
	ActiveKeys(now time.Time) []*STEK
}

// Static is a never-rotated key — the paper's most damning finding (4.9%
// of trusted domains reused one STEK for the full measurement period).
type Static struct {
	key  *STEK
	keys []*STEK // the single-element ActiveKeys result, built once
}

// NewStatic builds a static manager from seed material.
func NewStatic(seed []byte, f Format) *Static {
	k := Derive(seed, f)
	return &Static{key: k, keys: []*STEK{k}}
}

// NewStaticFromKey wraps an already-built key — e.g. one with WeakIV set
// — in a static manager.
func NewStaticFromKey(k *STEK) *Static {
	return &Static{key: k, keys: []*STEK{k}}
}

func (s *Static) IssuingKey(time.Time) *STEK { return s.key }
func (s *Static) ActiveKeys(time.Time) []*STEK {
	return s.keys
}
func (s *Static) LookupKey(tkt []byte, _ time.Time) *STEK {
	if s.key.Open(tkt) != nil {
		return s.key
	}
	return nil
}

func (s *Static) OpenTicketInto(dst *session.State, tkt []byte, _ time.Time) bool {
	ok := s.key.OpenInto(dst, tkt)
	countOpen(ok)
	return ok
}

// Rotating derives a fresh key every Period from Base, and keeps accepting
// tickets sealed by the previous AcceptPrevious keys (Google's measured
// policy: 14 h issue period, previous key accepted, ≈28 h window).
type Rotating struct {
	Seed           []byte
	Base           time.Time
	Period         time.Duration
	AcceptPrevious int
	Format         Format

	mu        sync.Mutex
	cache     map[int64]*STEK
	keysCache map[int64][]*STEK // epoch -> frozen ActiveKeys result

	// lastIssued is 1 + the epoch of the most recent IssuingKey call
	// (0 = none yet), so consecutive issues under different epochs —
	// rotations as a scanner would observe them — can be counted.
	lastIssued atomic.Int64
}

func (r *Rotating) epoch(now time.Time) int64 {
	if r.Period <= 0 {
		return 0
	}
	d := now.Sub(r.Base)
	if d < 0 {
		return 0
	}
	return int64(d / r.Period)
}

func (r *Rotating) key(epoch int64) *STEK {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		r.cache = make(map[int64]*STEK)
	}
	if k, ok := r.cache[epoch]; ok {
		return k
	}
	seed := binary.BigEndian.AppendUint64(append([]byte(nil), r.Seed...), uint64(epoch))
	k := Derive(seed, r.Format)
	r.cache[epoch] = k
	// Counted under r.mu: exactly one derivation per distinct epoch,
	// whatever the worker interleaving.
	telemetry.Global().Counter("ticket/stek_derived").Inc()
	// Evict keys the acceptance window can no longer reach from the
	// epoch just derived. Derive is a pure function of (Seed, epoch), so
	// an evicted key that is somehow needed again — a test rewinding the
	// clock — is re-derived bit-identically; without eviction a long
	// campaign retains one STEK (with its cached AES state) per elapsed
	// epoch per domain, and resident memory grows with days instead of
	// staying O(domains).
	if len(r.cache) > 4*(r.AcceptPrevious+1) {
		for e := range r.cache {
			if e < epoch-int64(r.AcceptPrevious) {
				delete(r.cache, e)
			}
		}
		for e := range r.keysCache {
			if e < epoch-int64(r.AcceptPrevious) {
				delete(r.keysCache, e)
			}
		}
	}
	return k
}

func (r *Rotating) IssuingKey(now time.Time) *STEK {
	e := r.epoch(now)
	// Exactly one caller observes each epoch transition (the atomic swap
	// hands the previous value to a single winner), and the lockstep
	// virtual clock fixes every phase's epoch, so the rotation count is
	// deterministic across worker counts.
	if prev := r.lastIssued.Swap(e + 1); prev != 0 && prev != e+1 {
		telemetry.Global().Counter(telemetry.CounterSTEKRotations).Inc()
	}
	return r.key(e)
}

func (r *Rotating) ActiveKeys(now time.Time) []*STEK {
	e := r.epoch(now)
	r.mu.Lock()
	if out, ok := r.keysCache[e]; ok {
		r.mu.Unlock()
		return out
	}
	r.mu.Unlock()
	out := []*STEK{r.key(e)}
	for i := int64(1); i <= int64(r.AcceptPrevious) && e-i >= 0; i++ {
		out = append(out, r.key(e-i))
	}
	r.mu.Lock()
	if r.keysCache == nil {
		r.keysCache = make(map[int64][]*STEK)
	}
	r.keysCache[e] = out
	r.mu.Unlock()
	return out
}

func (r *Rotating) LookupKey(tkt []byte, now time.Time) *STEK {
	for _, k := range r.ActiveKeys(now) {
		if k.Open(tkt) != nil {
			return k
		}
	}
	return nil
}

// OpenTicketInto tries each accepted key in turn; the outcome is counted
// once per ticket, not once per key tried.
func (r *Rotating) OpenTicketInto(dst *session.State, tkt []byte, now time.Time) bool {
	ok := false
	for _, k := range r.ActiveKeys(now) {
		if ok = k.OpenInto(dst, tkt); ok {
			break
		}
	}
	countOpen(ok)
	return ok
}
