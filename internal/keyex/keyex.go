// Package keyex is the unified key-exchange abstraction over FFDH and
// ECDHE (P-256), with deterministic epoch-derived private values so server
// policies can reuse a KEX value across connections and terminators.
//
// In Reuse mode the derived value is a pure function of (Seed, Base,
// Period, epoch), so it is cached per epoch: re-deriving it on every
// handshake (a SHA-256 loop plus scalar validation for P-256, a modular
// exponentiation for FFDH) produced bit-identical results at ~100x the
// cost. The cache is observationally equivalent to per-handshake
// derivation; internal/study's committed campaign golden hash pins it.
package keyex

import (
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"
	"time"

	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/telemetry"
)

// ReuseMode says how a server treats its ephemeral KEX value.
type ReuseMode int

const (
	Fresh ReuseMode = iota // new value per handshake (true ephemerality)
	Reuse                  // epoch-derived value, stable for Period
)

func (m ReuseMode) String() string {
	if m == Reuse {
		return "reuse"
	}
	return "fresh"
}

// Policy configures server-side KEX value handling. A zero Policy means a
// fresh value per handshake. Seed names the value-sharing group: two
// terminators with the same Seed (and Base/Period) serve the same value.
type Policy struct {
	Mode   ReuseMode
	Period time.Duration
	Base   time.Time
	Seed   []byte
}

// epoch returns the policy's epoch counter at now.
func (p *Policy) epoch(now time.Time) uint64 {
	if p.Period <= 0 {
		return 0
	}
	d := now.Sub(p.Base)
	if d <= 0 {
		return 0
	}
	return uint64(d / p.Period)
}

// epochSeed folds an epoch counter into the policy's seed.
func (p *Policy) epochSeedAt(e uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], e)
	h := sha256.New()
	h.Write(p.Seed)
	h.Write(b[:])
	return h.Sum(nil)
}

// epochSeed folds the policy's epoch counter into its seed.
func (p *Policy) epochSeed(now time.Time) []byte {
	return p.epochSeedAt(p.epoch(now))
}

// ---- epoch-keyed derivation cache ----

// cacheKey identifies one policy-epoch derivation. Two policies with the
// same (Seed, Base, Period) derive the same values, so terminators in a
// sharing group hit a single entry.
type cacheKey struct {
	kind   uint8 // 'E' ecdhe, 'D' dhe
	group  *ffdh.Group
	seed   string
	base   int64
	period time.Duration
	epoch  uint64
}

type cacheVal struct {
	ecdheKey *ecdh.PrivateKey
	ecdhePub []byte
	dhePriv  *big.Int
	dhePub   []byte
}

var (
	cacheMu sync.RWMutex
	cache   = map[cacheKey]*cacheVal{}
)

// maxCacheEntries bounds the cache across many campaigns in one process;
// one campaign touches a handful of epochs per reuse policy.
const maxCacheEntries = 4096

func cacheGet(k cacheKey) (*cacheVal, bool) {
	cacheMu.RLock()
	v, ok := cache[k]
	cacheMu.RUnlock()
	return v, ok
}

func cachePut(k cacheKey, v *cacheVal) {
	cacheMu.Lock()
	if len(cache) >= maxCacheEntries {
		cache = map[cacheKey]*cacheVal{}
	}
	if _, ok := cache[k]; !ok {
		// Fill count under the write lock with an existence check: two
		// workers may both miss the same epoch concurrently, so counting
		// misses would be racy — counting first inserts is not. Still
		// wall/: the cache is package-global and persists across
		// campaigns in one process, so fills depend on process history.
		telemetry.Global().Counter("wall/keyex/cache_fill").Inc()
	}
	cache[k] = v
	cacheMu.Unlock()
}

func (p *Policy) key(kind uint8, e uint64) cacheKey {
	return cacheKey{kind: kind, seed: string(p.Seed), base: p.Base.UnixNano(), period: p.Period, epoch: e}
}

// deriveECDHE runs the deterministic P-256 derivation loop for seed.
func deriveECDHE(seed []byte) (*ecdh.PrivateKey, error) {
	curve := ecdh.P256()
	for i := 0; i < 64; i++ {
		h := sha256.New()
		h.Write([]byte("ecdhe-priv"))
		h.Write(seed)
		h.Write([]byte{byte(i)})
		if k, err := curve.NewPrivateKey(h.Sum(nil)); err == nil {
			return k, nil
		}
	}
	return nil, fmt.Errorf("keyex: could not derive P-256 key")
}

// ECDHEKey returns the server's P-256 private key for this handshake under
// the policy; rand supplies entropy for Fresh mode.
func ECDHEKey(p *Policy, now time.Time, rand interface{ Read([]byte) (int, error) }) (*ecdh.PrivateKey, error) {
	k, _, err := ECDHEKeyPub(p, now, rand)
	return k, err
}

// ECDHEKeyPub is ECDHEKey plus the serialized public value (the bytes the
// ServerKeyExchange carries). In Reuse mode both come from the epoch
// cache, so neither the derivation loop nor the point serialization runs
// more than once per epoch. The returned slice must not be modified.
func ECDHEKeyPub(p *Policy, now time.Time, rand interface{ Read([]byte) (int, error) }) (*ecdh.PrivateKey, []byte, error) {
	if p == nil || p.Mode == Fresh {
		telemetry.Global().Counter("keyex/fresh_keys").Inc()
		// Draw explicit scalar bytes instead of ecdh.GenerateKey(rand):
		// GenerateKey does not consume a caller-supplied reader
		// deterministically, which would make fresh server values (and the
		// recorded ECDHE spans) differ between same-seed runs.
		var seed [32]byte
		if _, err := rand.Read(seed[:]); err != nil {
			return nil, nil, err
		}
		k, err := deriveECDHE(seed[:])
		if err != nil {
			return nil, nil, err
		}
		pub := k.PublicKey().Bytes()
		scalarStore(pub, k, false)
		return k, pub, nil
	}
	telemetry.Global().Counter("keyex/reuse_lookups").Inc()
	e := p.epoch(now)
	ck := p.key('E', e)
	if v, ok := cacheGet(ck); ok {
		telemetry.Global().Counter("wall/keyex/cache_hit").Inc()
		return v.ecdheKey, v.ecdhePub, nil
	}
	k, err := deriveECDHE(p.epochSeedAt(e))
	if err != nil {
		return nil, nil, err
	}
	pub := k.PublicKey().Bytes()
	cachePut(ck, &cacheVal{ecdheKey: k, ecdhePub: pub})
	scalarStore(pub, k, true)
	return k, pub, nil
}

// DHEPrivate returns the server's FFDH exponent seed for this handshake.
func DHEPrivate(g *ffdh.Group, p *Policy, now time.Time, rand interface{ Read([]byte) (int, error) }) ([]byte, error) {
	if p == nil || p.Mode == Fresh {
		buf := make([]byte, 32)
		if _, err := rand.Read(buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return p.epochSeed(now), nil
}

// DHEKey returns the server's FFDH private exponent and its serialized
// public value (left-padded to the modulus width). In Reuse mode the
// exponent derivation and the g^x modexp are served from the epoch cache.
// The returned values must not be modified.
func DHEKey(g *ffdh.Group, p *Policy, now time.Time, rand interface{ Read([]byte) (int, error) }) (*big.Int, []byte, error) {
	if p == nil || p.Mode == Fresh {
		telemetry.Global().Counter("keyex/fresh_keys").Inc()
		seed, err := DHEPrivate(g, p, now, rand)
		if err != nil {
			return nil, nil, err
		}
		priv := g.PrivateFromSeed(seed)
		return priv, g.Bytes(g.Public(priv)), nil
	}
	telemetry.Global().Counter("keyex/reuse_lookups").Inc()
	e := p.epoch(now)
	ck := p.key('D', e)
	ck.group = g
	if v, ok := cacheGet(ck); ok {
		telemetry.Global().Counter("wall/keyex/cache_hit").Inc()
		return v.dhePriv, v.dhePub, nil
	}
	priv := g.PrivateFromSeed(p.epochSeedAt(e))
	pub := g.Bytes(g.Public(priv))
	cachePut(ck, &cacheVal{dhePriv: priv, dhePub: pub})
	return priv, pub, nil
}
