package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

const contraProg = `
contra(in buffer a, out buffer b) {
  local int n;
  n = backlog-p(a);
  assume(n > 2000);
  move-p(a, b, n);
  assert(backlog-p(a) == 0);
}
`

func TestVetEndpointClean(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, srv.URL+"/v1/vet", Request{Source: quickProg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var v VetResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Clean || v.Rejected {
		t.Errorf("clean=%v rejected=%v, want clean; body %s", v.Clean, v.Rejected, body)
	}
	if v.Program != "limiter" {
		t.Errorf("program = %q, want limiter", v.Program)
	}
	// quickProg's assert is an interval-provable invariant.
	if v.Verify != "holds" {
		t.Errorf("verify = %q, want holds (body %s)", v.Verify, body)
	}
	if v.Diagnostics == nil {
		t.Error("diagnostics must be [] on the wire, not null")
	}
}

func TestVetEndpointRejectsAndCounts(t *testing.T) {
	e, srv := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, srv.URL+"/v1/vet", Request{Source: contraProg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var v VetResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Rejected || v.Clean {
		t.Errorf("clean=%v rejected=%v, want rejected; body %s", v.Clean, v.Rejected, body)
	}
	found := false
	for _, d := range v.Diagnostics {
		if d.Code == "B103" {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics missing the B103 contradiction: %s", body)
	}

	m := e.Metrics()
	if m.VetRequests < 1 || m.VetRejected < 1 {
		t.Errorf("vet counters = %d requests / %d rejected, want >= 1 each", m.VetRequests, m.VetRejected)
	}
	if m.JobsFailedBy["vet_rejected"] < 1 {
		t.Errorf("failure taxonomy missing vet_rejected: %v", m.JobsFailedBy)
	}
}

func TestVetEndpointBadRequest(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, _ := postJSON(t, srv.URL+"/v1/vet", Request{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty source: status = %d, want 400", resp.StatusCode)
	}
}

// TestVetValidatesFields pins that /v1/vet applies the field checks the
// analysis routes apply: an out-of-range width once vetted an empty
// interval domain into a bogus "holds" + "no-witness" verdict for a
// program whose witness exists, and no horizon past MaxHorizon is vetted.
func TestVetValidatesFields(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	const prog = `limiter(buffer in0, buffer out0) { monitor int departed; local int n; n = backlog-p(in0); if (n > 1) { n = 1; } move-p(in0, out0, n); departed = departed + n; if (t == T - 1) { assert(departed == 2); } }`
	for _, body := range []map[string]any{
		{"source": prog, "t": 4, "width": 63},
		{"source": prog, "t": 4, "width": 100},
		{"source": prog, "t": MaxHorizon + 1},
	} {
		for _, route := range []string{"/v1/vet", "/v1/witness"} {
			if resp, out := postJSON(t, srv.URL+route, body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %v: status = %d, want 400; body %s", route, body, resp.StatusCode, out)
			}
		}
	}
}

// TestVerifyJobAnsweredByStaticTier drives a full queue round-trip and
// checks the wire result is labeled with the answering tier.
func TestVerifyJobAnsweredByStaticTier(t *testing.T) {
	e, srv := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, srv.URL+"/v1/verify", Request{Source: quickProg, T: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Result == nil || view.Result.Tier != "static" {
		t.Fatalf("result tier != static: %s", body)
	}
	if got := e.Metrics().StaticAnswered; got < 1 {
		t.Errorf("static_tier_answers = %d, want >= 1", got)
	}
}
