package service

import (
	"net/http"
	"time"

	"buffy/internal/lang/sema"
	"buffy/internal/vet"
)

// VetResponse is the wire shape of POST /v1/vet: the static analyzer's
// findings and — when the program is trivially decidable — the static
// query verdict, answered inline in microseconds with no job queued and
// no solver constructed.
type VetResponse struct {
	Program string `json:"program,omitempty"`
	// Clean: no error- or warning-severity findings.
	Clean bool `json:"clean"`
	// Rejected: error-severity findings present; a solve of this program
	// would fail with the vet_rejected taxonomy class.
	Rejected    bool              `json:"rejected"`
	Summary     string            `json:"summary"`
	Diagnostics []sema.Diagnostic `json:"diagnostics"`
	// Static verdict, when conclusive (see sema.Verdict).
	Verify     string `json:"verify,omitempty"`
	Witness    string `json:"witness,omitempty"`
	Reason     string `json:"reason,omitempty"`
	DurationUS int64  `json:"duration_us"`
}

// vetHandler serves POST /v1/vet. Vetting is orders of magnitude cheaper
// than any queue round-trip, so it bypasses the job engine entirely; the
// engine is only consulted for metrics and drain state.
func vetHandler(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Vet runs no kind, but its body must pass the same field checks:
		// an out-of-range width or horizon would vet a different program
		// than any solve could run.
		req, ok := decodeRequest(w, r, "")
		if !ok {
			return
		}

		start := time.Now()
		res := vet.Source(req.Source, req.analysis().SemaOptions())
		elapsed := time.Since(start)

		e.met.vetRequests.Add(1)
		resp := VetResponse{
			Program:     res.Program,
			Clean:       res.Report.Clean(),
			Rejected:    res.Report.HasErrors(),
			Summary:     vet.Summary(res),
			Diagnostics: res.Report.Diags,
			Verify:      res.Report.Verdict.Verify,
			Witness:     res.Report.Verdict.Witness,
			Reason:      res.Report.Verdict.Reason,
			DurationUS:  elapsed.Microseconds(),
		}
		if resp.Diagnostics == nil {
			resp.Diagnostics = []sema.Diagnostic{}
		}
		if resp.Rejected {
			e.met.vetRejected.Add(1)
			e.met.recordFailed("vet_rejected")
		}
		writeJSON(w, http.StatusOK, resp)
	}
}
