package pki

import (
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"testing"
	"time"
)

var (
	start = time.Date(2016, 3, 2, 0, 0, 0, 0, time.UTC)
	nb    = start.AddDate(0, -2, 0)
	na    = start.AddDate(2, 0, 0)
)

func newRoot(t *testing.T, name string) *RootCA {
	t.Helper()
	r, err := NewRootCA(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func issue(t *testing.T, r *RootCA, name string) *Certificate {
	t.Helper()
	c, err := r.IssueLeaf([]string{name}, 1001, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// intermediate returns a CA signed by root, able to issue leaves itself.
func intermediate(t *testing.T, root *RootCA) *RootCA {
	t.Helper()
	key, err := genKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(2),
		Subject:               pkix.Name{CommonName: "Sim Intermediate"},
		NotBefore:             nb,
		NotAfter:              na,
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, root.Cert, key.Public(), root.Key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return &RootCA{Cert: cert, Key: key}
}

// A verdict reached inside the validity period must not outlive it: the
// memo answers each call against its own time.
func TestVerifyMemoHonoursTime(t *testing.T) {
	root := newRoot(t, "Sim Trust Root")
	leaf := issue(t, root, "a.example")
	late := na.AddDate(0, 1, 0)

	if NewRootStore(root).Verify(leaf.Chain, "a.example", late) {
		t.Fatal("fresh store trusts an expired chain")
	}
	s := NewRootStore(root)
	steps := []struct {
		at   time.Time
		want bool
	}{
		{start, true},
		{late, false},
		{na, true}, // NotAfter itself is still in date
		{na.Add(time.Second), false},
		{nb.Add(-time.Second), false},
		{nb, true},
		{start.AddDate(1, 0, 0), true},
	}
	for _, st := range steps {
		if got := s.Verify(leaf.Chain, "a.example", st.at); got != st.want {
			t.Errorf("Verify at %s = %v, want %v", st.at, got, st.want)
		}
	}
}

// The memo keys on the whole chain: a leaf first trusted through an
// intermediate is not trusted once the intermediate is left out.
func TestVerifyMemoKeysOnIntermediates(t *testing.T) {
	root := newRoot(t, "Sim Trust Root")
	inter := intermediate(t, root)
	leaf := issue(t, inter, "b.example")
	s := NewRootStore(root)
	if !s.Verify([][]byte{leaf.Chain[0], inter.Cert.Raw}, "b.example", start) {
		t.Fatal("chain through the intermediate is not trusted")
	}
	if s.Verify(leaf.Chain[:1], "b.example", start) {
		t.Fatal("leaf without its intermediate is trusted")
	}
}

func TestVerifyRejects(t *testing.T) {
	root, shady := newRoot(t, "Sim Trust Root"), newRoot(t, "Shady CA")
	s := NewRootStore(root)
	good, bad := issue(t, root, "c.example"), issue(t, shady, "c.example")
	for i := 0; i < 2; i++ { // the second round answers from the memo
		if !s.Verify(good.Chain, "c.example", start) {
			t.Error("trusted chain rejected")
		}
		if s.Verify(good.Chain, "d.example", start) {
			t.Error("chain trusted for a name it does not carry")
		}
		if s.Verify(bad.Chain, "c.example", start) {
			t.Error("chain from an untrusted root trusted")
		}
		if s.Verify(nil, "c.example", start) {
			t.Error("empty chain trusted")
		}
	}
}
