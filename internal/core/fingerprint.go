package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/dist"
)

// Fingerprint returns a canonical key identifying the system's complete
// parameterisation: server count, arrival and service rates and every phase
// weight and rate of both period distributions. Two systems share a
// fingerprint exactly when every solver input is bit-identical, so the key
// is safe to memoise solutions under (internal/service keys its cache on
// it). Floats are encoded in hexadecimal ('x') form — exact, locale-free
// and with no rounding collisions — and the whole description is hashed so
// keys stay fixed-width regardless of phase counts.
func (s System) Fingerprint() string {
	return s.hashedPayload("v1|N=", true)
}

// EnvFingerprint is Fingerprint with the arrival rate excluded: two
// systems share an environment fingerprint exactly when they differ in at
// most λ — the grouping under which a whole sweep can share one hoisted
// BatchSolver. The version tag differs from Fingerprint's, so the two key
// families can never collide.
func (s System) EnvFingerprint() string {
	return s.hashedPayload("env1|N=", false)
}

// hashedPayload hashes the canonical description of s. Both keys are
// persisted (cache snapshots) and place work on the cluster ring, so the
// byte sequence hashed here must never change; fingerprint_test.go pins
// it. The description is built in a stack buffer, so the returned string
// is the key's only allocation.
func (s System) hashedPayload(tag string, withLambda bool) string {
	var buf [512]byte
	b := append(buf[:0], tag...)
	b = strconv.AppendInt(b, int64(s.Servers), 10)
	if withLambda {
		b = append(b, "|l="...)
		b = strconv.AppendFloat(b, s.ArrivalRate, 'x', -1, 64)
	}
	b = append(b, "|m="...)
	b = strconv.AppendFloat(b, s.ServiceRate, 'x', -1, 64)
	b = appendDist(b, "op", s.Operative)
	b = appendDist(b, "rep", s.Repair)
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendDist appends one tagged distribution section; a nil distribution
// appends nothing.
func appendDist(b []byte, tag string, d *dist.HyperExp) []byte {
	if d == nil {
		return b
	}
	b = append(b, '|')
	b = append(b, tag...)
	for i := range d.Weights {
		b = append(b, '|')
		b = strconv.AppendFloat(b, d.Weights[i], 'x', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, d.Rates[i], 'x', -1, 64)
	}
	return b
}
