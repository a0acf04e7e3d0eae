package tlsclient

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"testing"
	"time"
)

// The parsed-leaf cache must stay bounded however many distinct leaves a
// process sees (tlsscan against real peers, many campaigns in one
// process), while still serving repeats from the cache.
func TestLeafCacheBounded(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "leaf.test"},
		NotBefore:    time.Unix(0, 0),
		NotAfter:     time.Unix(1<<31, 0),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	first, err := parseLeaf(der)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := parseLeaf(der); again != first {
		t.Fatal("repeated leaf was re-parsed instead of served from the cache")
	}
	// Parsing does not check the signature, so rewriting its last two
	// bytes gives as many distinct, parseable leaves as the test needs.
	v := append([]byte(nil), der...)
	for i := 0; i <= maxLeafCacheEntries; i++ {
		v[len(v)-2], v[len(v)-1] = byte(i>>8), byte(i)
		if _, err := parseLeaf(v); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		leafCache.mu.RLock()
		n := len(leafCache.m)
		leafCache.mu.RUnlock()
		if n > maxLeafCacheEntries {
			t.Fatalf("leaf cache holds %d entries, cap is %d", n, maxLeafCacheEntries)
		}
	}
}
