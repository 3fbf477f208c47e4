package service

import (
	"buffy/internal/backend/netcalc"
	"buffy/internal/backend/smtbe"
	"buffy/internal/smt/sat"
	"buffy/internal/vet"
)

// resultSchemaVersion names the wire shape of Result as stored on disk.
// Bump it when a Result field changes meaning (renames and additions that
// old payloads decode correctly do not require a bump).
const resultSchemaVersion = 2

// PipelineFingerprint hashes the version fingerprint of every
// answer-relevant component — the SMT encoding, the decision procedure,
// the static analyzer, the analytical bound backend, and the stored
// result schema — into the single version string the durable store
// files entries under. Any component bump changes the fingerprint and
// wholesale-invalidates previously stored results.
//
// Deliberately excluded: service.Version (release numbering should not
// flush the cache) and anything that only affects performance, not
// answers (worker counts, budgets, portfolio heuristics).
func PipelineFingerprint() string {
	h := newKeyHasher()
	h.field("encoder")
	h.field(smtbe.EncodingFingerprint)
	h.field("solver")
	h.field(sat.Fingerprint)
	h.field("sema")
	h.field(vet.Fingerprint)
	h.field("netcalc")
	h.field(netcalc.Fingerprint)
	h.field("result-schema")
	h.int(resultSchemaVersion)
	return h.sum()
}
