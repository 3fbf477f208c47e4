package dafny

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"buffy/internal/qm"
)

// The dafny/ directory at the repository root contains generated Dafny
// models for the case studies (the paper's companion repository ships the
// equivalent hand-translated .dfy files). This golden test keeps them in
// sync with the generator.
func TestGoldenDafnyArtifacts(t *testing.T) {
	root := filepath.Join("..", "..", "..", "dafny")
	cases := []struct {
		file string
		src  string
		opts GenOptions
	}{
		{"fq_buggy_T4.dfy", qm.FQBuggyQuerySrc, GenOptions{T: 4, Params: map[string]int64{"N": 3}}},
		{"rr_T4.dfy", qm.RRSrc, GenOptions{T: 4, Params: map[string]int64{"N": 3}}},
		{"aimd_T4.dfy", qm.AIMDSrc, GenOptions{T: 4, Params: map[string]int64{"IW": 2}}},
		{"path_server_T4.dfy", qm.PathServerSrc, GenOptions{T: 4, Params: map[string]int64{"C": 2, "B": 2}}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			info, err := qm.Load(c.src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Generate(info, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(root, c.file))
			if err != nil {
				t.Fatalf("golden file missing (regenerate with buffyc -mode dafny): %v", err)
			}
			if string(got) != want {
				t.Errorf("%s is stale; regenerate with buffyc -mode dafny", c.file)
			}
		})
	}
}

// TestGenerateBoolInitializer: a bool initializer folds to a Dafny bool
// literal, and packet classes default to max(inputs, 2), the bound the
// SMT encoding assumes.
func TestGenerateBoolInitializer(t *testing.T) {
	info, err := qm.Load(`bool_init(in buffer a, out buffer b) {
  global bool on = true;
  move-p(a, b, 1);
  assert(on);
}`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(info, GenOptions{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"var var_on: bool := true;", "requires 0 <= in_a_t0_k0_flow < 2", "assert var_on;"} {
		if !strings.Contains(out, want) {
			t.Errorf("generated model lacks %q:\n%s", want, out)
		}
	}
}
