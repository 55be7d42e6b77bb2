package core

import (
	"testing"

	"repro/internal/dist"
)

func fpSystem() System {
	return System{
		Servers:     10,
		ArrivalRate: 8,
		ServiceRate: 1,
		Operative:   dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091}),
		Repair:      dist.Exp(25),
	}
}

func TestFingerprintStability(t *testing.T) {
	a, b := fpSystem(), fpSystem()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical systems produced different fingerprints")
	}
	if got := a.Fingerprint(); got != a.Fingerprint() {
		t.Errorf("fingerprint not deterministic: %s vs %s", got, a.Fingerprint())
	}
	if len(a.Fingerprint()) != 64 {
		t.Errorf("fingerprint length %d, want 64 hex chars", len(a.Fingerprint()))
	}
}

func TestFingerprintSeparatesParameters(t *testing.T) {
	base := fpSystem()
	seen := map[string]string{base.Fingerprint(): "base"}
	record := func(name string, s System) {
		fp := s.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}

	s := fpSystem()
	s.Servers = 11
	record("servers", s)

	s = fpSystem()
	s.ArrivalRate = 8.0000000001
	record("lambda-epsilon", s)

	s = fpSystem()
	s.ServiceRate = 2
	record("mu", s)

	s = fpSystem()
	s.Operative = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0092})
	record("op-rate", s)

	s = fpSystem()
	s.Repair = dist.Exp(26)
	record("rep-rate", s)

	// Swapping operative and repair must not alias (tagged sections).
	s = fpSystem()
	s.Operative, s.Repair = s.Repair, s.Operative
	record("swapped", s)
}

// TestFingerprintGolden pins the keys to values recorded before the
// encoder was rewritten: fingerprints persist in cache snapshots and place
// work on the cluster ring, so any change to the hashed bytes would cold
// every warmed cache and move every shard.
func TestFingerprintGolden(t *testing.T) {
	var zero System
	for _, c := range []struct {
		name, got, want string
	}{
		{"Fingerprint", fpSystem().Fingerprint(), "0beac82aff61bdae9a02acf8ed569120ccd3315626562998e16f4312ea58350d"},
		{"EnvFingerprint", fpSystem().EnvFingerprint(), "05dee64153e55b49c7b6bc922e44dec9e6b6fc21b454d26c75a8a8ec093039bf"},
		{"zero Fingerprint", zero.Fingerprint(), "eecc779175c3b39983d5c248dd217ccbfcb090d46debb5105779a2238f6330ca"},
		{"zero EnvFingerprint", zero.EnvFingerprint(), "5219721a84de8f707d60cc4e16cb5306d514d14a2b0b1df983227fd63d85d88a"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestFingerprintAllocs holds the key builders to the returned string's
// own allocation: every /v1/solve computes two of them.
func TestFingerprintAllocs(t *testing.T) {
	s := fpSystem()
	if n := testing.AllocsPerRun(100, func() { _ = s.Fingerprint() }); n > 1 {
		t.Errorf("Fingerprint: %v allocs per call, want ≤ 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.EnvFingerprint() }); n > 1 {
		t.Errorf("EnvFingerprint: %v allocs per call, want ≤ 1", n)
	}
}

func TestFingerprintNilDistributions(t *testing.T) {
	// Invalid systems still fingerprint (callers validate separately).
	var s System
	if s.Fingerprint() == fpSystem().Fingerprint() {
		t.Error("zero system collides with populated system")
	}
}
