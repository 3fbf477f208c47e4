package service

import (
	"encoding/json"
	"testing"

	"buffy/internal/qm"
)

// FuzzValidate decodes arbitrary bytes as a request body, as the HTTP
// routes do, and validates it. Validate must never panic, and a request
// it accepts must still be accepted, with the same cache and session
// keys, after a JSON round trip.
func FuzzValidate(f *testing.F) {
	for _, body := range []map[string]any{
		{"source": quickProg, "t": 3},
		{"kind": "witness", "source": qm.FQBuggyQuerySrc, "t": 6, "params": map[string]int64{"N": 3}},
		{"kind": "bound", "source": quickProg, "t": 4, "cross_check": true},
		{"kind": "sweep", "source": quickProg, "max_t": 8, "sweep_mode": "witness"},
		{"kind": "verify", "source": quickProg, "portfolio": 4, "var_decay": 0.9, "rand_freq": 0.02, "rand_seed": 7},
		{"kind": "synthesize", "source": quickProg, "max_conflicts": 1, "timeout_ms": 100, "width": 16},
		{"source": quickProg, "width": 1},
		{"source": quickProg, "bogus_field": 1},
		{"source": ""},
	} {
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Request
		if json.Unmarshal(body, &r) != nil {
			return
		}
		if r.Validate() != nil {
			return
		}
		data, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("marshal a valid request: %v", err)
		}
		var back Request
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("valid request %s rejected after a round trip: %v", data, err)
		}
		if back.CacheKey() != r.CacheKey() || back.SessionKey() != r.SessionKey() {
			t.Errorf("round trip of %s changed the request's keys", data)
		}
	})
}
