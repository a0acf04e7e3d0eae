package population

import (
	"crypto"
	"crypto/x509"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"tlsshortcuts/internal/simclock"
)

func buildAt(t *testing.T, procs int, o Options) *World {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	w, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// leafOf parses the leaf a domain's terminator serves, failing the test if
// the certificate was never issued.
func leafOf(t *testing.T, domain string, term *Terminator) *x509.Certificate {
	t.Helper()
	cert := term.Config.DefaultCert
	if len(cert.Chain) == 0 || cert.Key == nil {
		t.Fatalf("%s: certificate not issued", domain)
	}
	c, err := x509.ParseCertificate(cert.Chain[0])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The parallel issuing pass changes only key material and signatures:
// everything the seeded rank-order pass decides — and every certificate
// field but key and signature — is the same at any GOMAXPROCS.
func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	o := Options{ListSize: 300, Seed: 7}
	one, four := buildAt(t, 1, o), buildAt(t, 4, o)
	if len(one.Domains) != 300 || len(four.Domains) != len(one.Domains) {
		t.Fatalf("domain counts %d and %d, want 300", len(one.Domains), len(four.Domains))
	}
	for name, a := range one.Domains {
		b := four.Domains[name]
		if b == nil {
			t.Fatalf("%s missing at GOMAXPROCS 4", name)
		}
		if a.Name != b.Name || a.Rank != b.Rank || a.Operator != b.Operator ||
			a.Trusted != b.Trusted || len(a.Terms) != len(b.Terms) {
			t.Fatalf("%s differs: %+v vs %+v", name, a, b)
		}
		for k := range a.Terms {
			if !reflect.DeepEqual(a.Terms[k].Behavior, b.Terms[k].Behavior) {
				t.Fatalf("%s terminator %d behaviour differs", name, k)
			}
			ca, cb := leafOf(t, name, a.Terms[k]), leafOf(t, name, b.Terms[k])
			if !reflect.DeepEqual(ca.DNSNames, cb.DNSNames) || ca.SerialNumber.Cmp(cb.SerialNumber) != 0 ||
				ca.Issuer.String() != cb.Issuer.String() ||
				!ca.NotBefore.Equal(cb.NotBefore) || !ca.NotAfter.Equal(cb.NotAfter) {
				t.Fatalf("%s terminator %d certificate differs", name, k)
			}
		}
	}
}

// Every terminator serves a filled certificate whose key matches its leaf
// and which the world's root store trusts exactly when the domain is
// Trusted; terminators of one operator chunk share one certificate.
func TestBuildCertificates(t *testing.T) {
	w := buildAt(t, 4, Options{ListSize: 300, Seed: 7, WeakCrypto: true})
	trusted := 0
	for name, d := range w.Domains {
		for k, term := range d.Terms {
			leaf, cert := leafOf(t, name, term), term.Config.DefaultCert
			if !cert.Key.Public().(interface{ Equal(crypto.PublicKey) bool }).Equal(leaf.PublicKey) {
				t.Fatalf("%s terminator %d: key does not match the leaf", name, k)
			}
			if got := w.Roots.Verify(cert.Chain, name, simclock.Epoch); got != d.Trusted {
				t.Fatalf("%s terminator %d: Verify = %v, Trusted = %v", name, k, got, d.Trusted)
			}
			if d.Operator == name {
				continue // tail domain: a leaf of its own
			}
			// The other names on an operator leaf are its chunk mates,
			// served by the same certificate.
			for _, mate := range leaf.DNSNames {
				m := w.Domains[mate]
				if m == nil || m.Operator != d.Operator || m.Terms[0].Config.DefaultCert != cert {
					t.Fatalf("%s and %s share a leaf but not its certificate", name, mate)
				}
			}
		}
		if d.Trusted {
			trusted++
		}
	}
	if trusted == 0 || trusted == len(w.Domains) {
		t.Fatalf("%d of %d domains trusted; want both kinds", trusted, len(w.Domains))
	}
}

func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{300, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(Options{ListSize: n, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
