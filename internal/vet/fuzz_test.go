package vet

import (
	"os"
	"path/filepath"
	"testing"

	"buffy/internal/lang/sema"
)

// FuzzFrontEnd feeds arbitrary source through the whole static front end
// (lexer, parser, typecheck, sema), as POST /v1/vet does with a request
// body. Nothing may panic, every diagnostic must carry a source position,
// and the interval pass must stay inside its step budget.
func FuzzFrontEnd(f *testing.F) {
	for _, dir := range []string{"../qm/models", "../lang/sema/testdata"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.buffy"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seeds in %s: %v", dir, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src), uint8(4))
		}
	}
	f.Fuzz(func(t *testing.T, src string, horizon uint8) {
		res := Source(src, sema.Options{T: int(horizon % 16)})
		if steps := res.Report.Steps; steps > sema.MaxSteps {
			t.Errorf("steps = %d, over the budget %d", steps, sema.MaxSteps)
		}
		for _, d := range res.Report.Diags {
			if !d.Pos.IsValid() {
				t.Errorf("%s diagnostic without a position: %s", d.Code, d.Msg)
			}
		}
	})
}
