// Package pki provides the simulated CA hierarchy and root store: real
// ECDSA P-256 x509 certificates issued by simulated roots, and the
// "browser-trusted" predicate the study's trust filter applies (§3 of the
// paper).
package pki

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// Certificate bundles a leaf's chain and private key — everything a
// terminator needs to serve it.
type Certificate struct {
	Chain [][]byte // DER, leaf first
	Key   crypto.Signer
}

// RootCA can issue leaves. Issuance is safe for concurrent use: keys and
// signatures draw on crypto/rand, and callers pick the serial numbers.
type RootCA struct {
	Cert *x509.Certificate
	Key  crypto.Signer
}

func genKey() (crypto.Signer, error) {
	return ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
}

// NewRootCA creates a self-signed root.
func NewRootCA(name string) (*RootCA, error) {
	key, err := genKey()
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &RootCA{Cert: cert, Key: key}, nil
}

// IssueLeaf issues a server certificate for names with the given serial
// number, valid from nb through na.
func (r *RootCA) IssueLeaf(names []string, serial int64, nb, na time.Time) (*Certificate, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("pki: no names")
	}
	key, err := genKey()
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: names[0]},
		DNSNames:     names,
		NotBefore:    nb,
		NotAfter:     na,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, r.Cert, key.Public(), r.Key)
	if err != nil {
		return nil, err
	}
	return &Certificate{Chain: [][]byte{der, r.Cert.Raw}, Key: key}, nil
}

// validity is the span in which every certificate of a set is in date:
// the latest NotBefore to the earliest NotAfter, both inclusive, as
// x509 checks them.
type validity struct{ nb, na time.Time }

var always = validity{na: time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)}

func (v validity) narrow(certs ...*x509.Certificate) validity {
	for _, c := range certs {
		if c.NotBefore.After(v.nb) {
			v.nb = c.NotBefore
		}
		if c.NotAfter.Before(v.na) {
			v.na = c.NotAfter
		}
	}
	return v
}

func (v validity) contains(t time.Time) bool { return !t.Before(v.nb) && !t.After(v.na) }

// verdict is one memoized Verify answer and the span it holds for.
type verdict struct {
	ok bool
	validity
}

// RootStore is the simulated browser trust store.
type RootStore struct {
	pool  *x509.CertPool
	roots validity // span in which every trusted root is in date
	cache sync.Map // [32]byte chain+name fingerprint -> verdict
}

// NewRootStore builds a store trusting the given roots.
func NewRootStore(roots ...*RootCA) *RootStore {
	s := &RootStore{pool: x509.NewCertPool(), roots: always}
	for _, r := range roots {
		s.pool.AddCert(r.Cert)
		s.roots = s.roots.narrow(r.Cert)
	}
	return s
}

// Verify reports whether the DER chain is browser-trusted for name at the
// given time. Results are memoized by (chain, name) together with the span
// in which they hold — the study re-checks the same chain tens of
// thousands of times, at many different times.
func (s *RootStore) Verify(chain [][]byte, name string, now time.Time) bool {
	if len(chain) == 0 {
		return false
	}
	h := sha256.New()
	var n [8]byte
	for _, der := range chain {
		binary.BigEndian.PutUint64(n[:], uint64(len(der)))
		h.Write(n[:])
		h.Write(der)
	}
	h.Write([]byte(name))
	var key [32]byte
	h.Sum(key[:0])
	if v, ok := s.cache.Load(key); ok && v.(verdict).contains(now) {
		return v.(verdict).ok
	}
	v := s.verify(chain, name, now)
	if v.contains(now) {
		s.cache.Store(key, v)
	}
	return v.ok
}

// verify checks the chain at now. A trusted verdict holds while every
// certificate of the verified chain is in date. An untrusted one holds
// while every certificate that path building could have used — the
// presented chain and the trusted roots — is in date: inside that span
// no validity check changes its answer, and nothing else x509.Verify
// checks depends on the time. When now lies outside that span (an
// expired chain), the verdict holds for now alone and is not memoized.
func (s *RootStore) verify(chain [][]byte, name string, now time.Time) verdict {
	leaf, err := x509.ParseCertificate(chain[0])
	if err != nil {
		return verdict{validity: always}
	}
	inter := x509.NewCertPool()
	span := s.roots.narrow(leaf)
	for _, der := range chain[1:] {
		c, err := x509.ParseCertificate(der)
		if err != nil {
			continue
		}
		inter.AddCert(c)
		span = span.narrow(c)
	}
	chains, err := leaf.Verify(x509.VerifyOptions{
		DNSName:       name,
		Roots:         s.pool,
		Intermediates: inter,
		CurrentTime:   now,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	})
	if err != nil {
		return verdict{validity: span}
	}
	return verdict{ok: true, validity: always.narrow(chains[0]...)}
}
