package sat

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestNoTelemetryImport pins the solver's one output path: search
// effort and events leave the package only through Progress, so no
// non-test file may import the telemetry package.
func TestNoTelemetryImport(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "buffy/internal/telemetry" {
				t.Errorf("%s imports %s; search events leave the solver through Progress only", name, path)
			}
		}
	}
}
